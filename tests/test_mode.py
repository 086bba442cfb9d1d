import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from baryalg import mode
from baryalg.mode import (
    LawReport,
    Leaf,
    ModeError,
    Node,
    as_point,
    bary_op,
    check_laws,
    eval_term,
    format_term,
    parse_term,
    term_coefficients,
)

F = Fraction


def test_bary_op_examples():
    assert bary_op([0], [3], F(1, 3)) == (1,)
    for p in (F(0), F(1, 2), F(7, 5)):
        assert bary_op([2, 3], [2, 3], p) == (2, 3)
    assert bary_op([0, 0], [1, 1], F(1, 2)) == (F(1, 2), F(1, 2))
    with pytest.raises(ModeError):
        bary_op([0], [1, 2], F(1, 2))


def test_as_point_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    point = as_point([half, 3, "2/3", 0.25])
    assert point == (half, 3, F(2, 3), F(1, 4))
    assert point[0] is half
    assert all(type(x) is F for x in point)


def test_eval_term_examples():
    assert eval_term(Leaf(0), {0: (F(5),)}) == (5,)
    term = Node(Node(Leaf(0), Leaf(1), F(1, 2)), Node(Leaf(2), Leaf(3), F(1, 2)), F(1, 2))
    points = {i: (F(i),) for i in range(4)}
    # oracle: (1/2)(1/2) + (1/2)(5/2) = 3/2
    assert eval_term(term, points) == (F(3, 2),)
    with pytest.raises(ModeError):
        eval_term(Leaf(7), points)


def test_term_coefficients_examples():
    t = Node(Leaf(0), Leaf(1), F(1, 2))
    assert term_coefficients(t, 2) == [F(1, 2), F(1, 2)]
    t2 = Node(t, Leaf(0), F(1, 2))
    assert term_coefficients(t2, 2) == [F(3, 4), F(1, 4)]
    assert term_coefficients(Leaf(0), 3) == [1, 0, 0]


def _random_term(rng, arity, depth):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.randrange(arity))
    return Node(
        _random_term(rng, arity, depth - 1),
        _random_term(rng, arity, depth - 1),
        F(rng.randint(-6, 12), rng.randint(1, 8)),
    )


def test_eval_matches_coefficients_on_random_terms():
    rng = random.Random(9)
    for _ in range(60):
        arity = rng.randint(1, 4)
        term = _random_term(rng, arity, 6)
        coeffs = term_coefficients(term, arity)
        assert sum(coeffs) == 1
        points = {
            i: (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9)))
            for i in range(arity)
        }
        direct = eval_term(term, points)
        combined = tuple(
            sum((coeffs[i] * points[i][j] for i in range(arity)), F(0))
            for j in range(2)
        )
        assert direct == combined


def test_term_sexpr_roundtrip():
    text = "(op (op x0 x1 1/2) x2 -1/3)"
    term = parse_term(text)
    assert format_term(term) == text
    assert parse_term("x5") == Leaf(5)
    for bad in ["(op x0 x1)", "x", "(op x0 x1 1/2) x3", "()"]:
        with pytest.raises(ModeError):
            parse_term(bad)


def test_check_laws_clean_sample():
    report = check_laws([(0,), (1,), (2,), (3,)], [F(1, 2), F(1, 3)])
    assert report.ok
    assert report.violations == []
    assert report.checked["entropic"] == 4**4 * 4


def test_check_laws_entropic_instance():
    # both sides of the entropic identity evaluate to 7/6 here
    x, y, z, t = (F(0),), (F(1),), (F(2),), (F(3),)
    p, q = F(1, 2), F(1, 3)
    lhs = bary_op(bary_op(x, y, p), bary_op(z, t, p), q)
    rhs = bary_op(bary_op(x, z, q), bary_op(y, t, q), p)
    assert lhs == rhs == (F(7, 6),)


def test_free_sample_holds_beyond_the_corner_parameters():
    # the corners {0, 1}^2 stand for every parameter pair, since each law's
    # coefficients have degree at most 1 in p and in q
    assert check_laws(mode.FREE_SAMPLE, mode.CORNER_PARAMETERS).ok
    rng = random.Random(27)
    pairs = [[F(rng.randint(-24, 36), rng.randint(1, 12)) for _ in "pq"] for _ in range(20)]
    values = [v for pair in pairs for v in pair]
    assert min(values) < 0 and max(values) > 1
    for pair in pairs:
        assert check_laws(mode.FREE_SAMPLE, pair).violations == [], pair


def test_check_laws_zero_parameter_skips_cancellation():
    report = check_laws([(0,), (1,)], [F(0)])
    assert report.ok
    assert report.cancellation_not_applicable > 0
    assert report.checked["cancellativity"] == 0


def _reference_laws(sample, parameters):
    """The law check as a plain loop of bary_op calls: the reference for check_laws."""
    points = [as_point(s) for s in sample]
    if not points:
        raise ModeError("empty sample")
    params = [F(p) for p in parameters]
    names = ("idempotence", "commutativity", "entropic", "cancellativity")
    report = LawReport({name: 0 for name in names}, [])

    def law(name, holds, witness):
        report.checked[name] += 1
        if not holds:
            report.violations.append((name, witness))

    for p in params:
        for x in points:
            law("idempotence", bary_op(x, x, p) == x, (x, p))
        for x, y in product(points, repeat=2):
            law("commutativity", bary_op(x, y, p) == bary_op(y, x, 1 - p), (x, y, p))
        for x, y, z in product(points, repeat=3):
            if p == 0:
                report.cancellation_not_applicable += 1
            else:
                holds = bary_op(x, y, p) != bary_op(x, z, p) or y == z
                law("cancellativity", holds, (x, y, z, p))
        for q in params:
            for x, y, z, t in product(points, repeat=4):
                lhs = bary_op(bary_op(x, y, p), bary_op(z, t, p), q)
                rhs = bary_op(bary_op(x, z, q), bary_op(y, t, q), p)
                law("entropic", lhs == rhs, (x, y, z, t, p, q))
    return report


#: Parameters 0, 1, negative, above 1, with mixed denominators, as
#: Fractions, ints and strings.
_PARAMETER_POOL = [F(0), 1, F(1, 2), "1/2", F(1, 12), F(2, 7), F(-1, 3), F(5, 4), -2, "7/3"]


def _random_coordinate(rng):
    # a Fraction, a string such as "3/4", or an int when integral
    c = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 12]))
    return rng.choice([c, str(c), int(c) if c.denominator == 1 else c])


def _random_law_sample(rng):
    dim = rng.randint(0, 3)
    # the reference makes 6 n^4 m^2 bary_op calls; keep that small
    n = rng.choice([1, 1, 2, 2, 2, 3, 3, 3, 4])
    m = rng.choice({1: [1, 2, 3, 4], 2: [1, 2, 3], 3: [1, 1, 1, 2], 4: [1]}[n])
    distinct = [[_random_coordinate(rng) for _ in range(dim)] for _ in range(n)]
    # draw with replacement, so samples repeat points (y == z in cancellativity)
    points = [rng.choice(distinct) for _ in range(n)]
    params = [rng.choice(_PARAMETER_POOL) for _ in range(m)]
    return points, params


def test_check_laws_matches_bary_op_reference():
    rng = random.Random(15)
    seen = set()
    for _ in range(200):
        points, params = _random_law_sample(rng)
        report = check_laws(points, params)
        expected = _reference_laws(points, params)
        assert report == expected
        assert list(report.checked) == list(expected.checked)
        exact = [F(p) for p in params]
        seen.add(f"dim {len(points[0])}")
        seen.add("repeated points" * (len(set(map(tuple, points))) < len(points)))
        seen.add("duplicated parameters" * (len(set(exact)) < len(exact)))
        seen.add("mixed denominators" * (len({p.denominator for p in exact} - {1}) > 1))
    assert {"dim 0", "dim 1", "dim 2", "dim 3", "repeated points"} <= seen
    assert {"duplicated parameters", "mixed denominators"} <= seen


def test_check_laws_edge_cases_match_reference():
    for points, params in [
        ([(0,), (1, 2)], []),
        ([(0,), (1, 2)], [F(1, 2)]),
        ([(0,), (1,), (1, 2, 3)], [F(1, 3), 0]),
        ([(), (1,)], [1]),
        ([], [F(1, 2)]),
        ([], []),
    ]:
        try:
            expected = _reference_laws(points, params)
        except ModeError as exc:
            with pytest.raises(ModeError) as raised:
                check_laws(points, params)
            assert str(raised.value) == str(exc)
        else:
            assert check_laws(points, params) == expected
    with pytest.raises(ModeError, match="^dimension mismatch: 1 vs 3$"):
        check_laws([(0,), (1,), (1, 2, 3)], [F(1, 3)])
    with pytest.raises(ModeError, match="^empty sample$"):
        check_laws([], [])
    assert check_laws([(0,), (1, 2)], []).checked == dict.fromkeys(
        ("idempotence", "commutativity", "entropic", "cancellativity"), 0
    )


def test_check_laws_reports_a_wrong_operation(monkeypatch):
    # (e - a)u + av + a: a translation by the weight, which is neither
    # idempotent, twisted commutative for p != 1/2, nor entropic for p != q
    def shifted(u, v, a, e):
        return tuple((e - a) * s + a * t + a for s, t in zip(u, v))

    monkeypatch.setattr(mode, "_scaled_op", shifted)
    x, y = (F(0),), (F(1),)
    p, q = F(1, 3), F(1, 2)
    report = check_laws([(0,), (1,)], ["1/3", q])
    assert not report.ok
    by_law = {}
    for law, witness in report.violations:
        by_law.setdefault(law, []).append(witness)
    assert by_law["commutativity"] == [(a, b, p) for a, b in product([x, y], repeat=2)]
    assert len(by_law["entropic"]) == 2 * 2**4
    assert by_law["entropic"][0] == (x, x, x, x, p, q)
    assert by_law["entropic"][-1] == (y, y, y, y, q, p)
    for witness in by_law["commutativity"] + by_law["entropic"]:
        values = [c for w in witness for c in (w if isinstance(w, tuple) else (w,))]
        assert all(type(c) is F for c in values)
    assert "cancellativity" not in by_law


def test_check_laws_computes_each_distinct_operation_once(monkeypatch):
    calls = []
    original = mode._scaled_op

    def counting(u, v, a, e):
        calls.append((tuple(u), tuple(v), a, e))
        return original(u, v, a, e)

    monkeypatch.setattr(mode, "_scaled_op", counting)
    report = check_laws(mode.FREE_SAMPLE, mode.CORNER_PARAMETERS)
    assert report.ok
    assert report.checked == {
        "idempotence": 8,
        "commutativity": 32,
        "entropic": 1024,
        "cancellativity": 64,
    }
    # at the parameters 0 and 1 every table entry is a sample point, so the
    # outer operations of the 1024 entropic instances repeat the 2 * 4 * 4
    # table entries
    assert len(calls) == len(set(calls)) == 32
    calls.clear()
    check_laws([(0,), (1,), (2,), (3,)], [F(1, 2), F(1, 3)])
    assert len(calls) == len(set(calls))


def division_point_relations(y, x, p):
    """b = y x (p) with the inverse laws x = y b (1/p), y = b x (p/(p-1)) and
    dist(y,x)^2 p^2 = dist(y,b)^2, for 0 < p < 1 and y != x."""
    y, x, p = as_point(y), as_point(x), F(p)
    b = bary_op(y, x, p)
    first = bary_op(y, b, 1 / p) == x
    second = bary_op(b, x, p / (p - 1)) == y
    dist2_yx = sum((a - c) ** 2 for a, c in zip(y, x))
    dist2_yb = sum((a - c) ** 2 for a, c in zip(y, b))
    return b, (first, second, dist2_yx * p * p == dist2_yb)


def test_division_point_examples():
    b, checks = division_point_relations([0], [3], F(1, 3))
    assert b == (1,)
    assert checks == (True, True, True)
    b, checks = division_point_relations([0, 0], [1, 0], F(1, 2))
    assert b == (F(1, 2), 0)
    assert all(checks)
    b, _ = division_point_relations([0], [1], F(2, 3))
    assert b == (F(2, 3),)
    assert bary_op([0], b, F(3, 2)) == (1,)


def test_division_point_random_triples():
    rng = random.Random(4)
    for _ in range(100):
        dim = rng.randint(1, 3)
        y = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(dim))
        x = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(dim))
        if x == y:
            continue
        p = F(rng.randint(1, 11), 12)
        _, checks = division_point_relations(y, x, p)
        assert checks == (True, True, True)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
params = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(small_fracs, small_fracs),
    st.tuples(small_fracs, small_fracs),
    st.tuples(small_fracs, small_fracs),
    st.tuples(small_fracs, small_fracs),
    params,
    params,
)
def test_laws_hold_on_arbitrary_rationals(x, y, z, t, p, q):
    report = check_laws([x, y, z, t], [p, q])
    assert report.ok
