"""Seeded workloads: each builds a list of queries and their checks.

A workload is a list of rounds; a round holds one query per slot of the
workload's fixed slot table, so any prefix of whole rounds has the same mix.
The seed only draws coordinates, coefficients and which slot variant a
round uses; the shape of the mix does not depend on it.  Inputs are parsed
into exact values here, during set-up; each query's `call` sends them
through baryalg's public functions, looked up on the module at call time so
that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import checks

RINGS = ((2,), (3,), (2, 5))  # Z[1/2], Z[1/3], Z[1/10]


@dataclass
class Query:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    name: str
    queries: list[Query]
    round_size: int
    trace_rounds: int
    properties: dict = field(default_factory=dict)


def _rational(rng: random.Random, span: int, dens=(1, 2, 3, 4)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(-span * den, span * den), den)


def _point(rng: random.Random, dim: int, span: int = 8) -> tuple[Fraction, ...]:
    return tuple(_rational(rng, span) for _ in range(dim))


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _combine(weights, points) -> tuple[Fraction, ...]:
    return tuple(
        sum((w * p[j] for w, p in zip(weights, points)), Fraction(0))
        for j in range(len(points[0]))
    )


# ---------------------------------------------------------------------------
# membership: hull membership over Q and Z[S^-1], and Caratheodory
# ---------------------------------------------------------------------------

#: (kind, dimension, member by construction); m rotates with the round.
MEMBERSHIP_SLOTS = tuple(
    (kind, dim, member)
    for dim in (1, 2, 3)
    for kind, member in (("Q", True), ("Q", False), ("T", True), ("T", False), ("C", True))
)


def _ring_weights(rng: random.Random, primes, m: int) -> list[Fraction]:
    """Coefficients in the ring's unit interval that sum to 1."""
    p = 1
    for q in primes:
        p *= q
    exp = rng.randint(1, 2 if p >= 5 else 3)
    total = p**exp
    return [Fraction(c, total) for c in _composition(rng, total, m)]


def _random_in_box(rng: random.Random, points) -> tuple[Fraction, ...]:
    out = []
    for j in range(len(points[0])):
        lo = min(p[j] for p in points)
        hi = max(p[j] for p in points)
        out.append(lo + (hi - lo + 2) * Fraction(rng.randint(0, 16), 16) - 1)
    return tuple(out)


def make_membership(ba, rng: random.Random, rounds: int, tiny: bool) -> Workload:
    hull, linalg = ba.hull, ba.linalg
    queries = []
    m_q = (3, 4) if tiny else tuple(range(3, 11))  # crosses FM_VARIABLE_LIMIT = 8
    # T stays at m <= 7: its cost grows about threefold per generator (one
    # query at m = 9 takes about 1 s), so a few of them would set a run's pace
    m_t = (3, 4) if tiny else tuple(range(3, 8))
    for r in range(rounds):
        for s, (kind, dim, member) in enumerate(MEMBERSHIP_SLOTS):
            ms = m_t if kind == "T" else m_q
            m = ms[(r + s) % len(ms)]
            pts = [_point(rng, dim) for _ in range(m)]
            primes = RINGS[(r + s) % len(RINGS)]
            if member and kind == "T":
                d = _combine(_ring_weights(rng, primes, m), pts)
            elif member:
                weights = [Fraction(rng.randint(0, 6)) for _ in pts]
                weights[rng.randrange(m)] += 1
                d = _combine([w / sum(weights) for w in weights], pts)
            else:
                d = _random_in_box(rng, pts)
            label = f"{kind} dim={dim} m={m} {'member' if member else 'random'}"
            if kind == "Q":
                call = lambda d=d, pts=pts: hull.membership_report_Q(d, pts)
                check = _membership_check(linalg, d, pts, member, None)
            elif kind == "T":
                ring = ba.RingSpec(primes)
                call = lambda d=d, pts=pts, ring=ring: hull.membership_report_T(d, pts, ring)
                check = _membership_check(linalg, d, pts, member, primes)
                label += f" ring={list(primes)}"
            else:
                call = lambda d=d, pts=pts: hull.caratheodory(d, pts)
                check = _caratheodory_check(d, pts)
            queries.append(Query(label, call, check))
    return Workload(
        "membership",
        queries,
        len(MEMBERSHIP_SLOTS),
        trace_rounds=24,
        properties={
            "dimensions": [1, 2, 3],
            "generators_Q_and_caratheodory": list(m_q),
            "generators_T": list(m_t),
            "rings_inverted_primes": [list(p) for p in RINGS],
            "slots_per_round": len(MEMBERSHIP_SLOTS),
        },
    )


def _membership_constraints(linalg, d, pts):
    """The system hull.membership_report_* solves, in its row order."""
    m = len(pts)
    rows = [linalg.LinearConstraint([p[j] for p in pts], "==", d[j]) for j in range(len(d))]
    rows.append(linalg.LinearConstraint([1] * m, "==", 1))
    rows += [linalg.LinearConstraint([int(i == k) for k in range(m)], ">=", 0) for i in range(m)]
    return rows


#: Negative T verdicts that carry no certificate to re-check yet.
UNCERTIFIED_T_REASONS = ("unique-rational-point-not-in-ring", "no-ring-point-on-affine-hull")


def _membership_check(linalg, d, pts, member, primes):
    def check(report) -> Optional[str]:
        if report.member:
            if report.combination is None:
                return "member verdict without a witness"
            return checks.combination_error(report.combination.support, pts, d, primes)
        if report.reason == "rational-hull-infeasible":
            if member:
                return "member by construction reported outside the rational hull"
            cert = report.certificate
            if cert is None or not linalg.verify_farkas_certificate(
                _membership_constraints(linalg, d, pts), cert
            ):
                return "negative verdict without a valid Farkas certificate"
            return None
        if primes is None or report.reason not in UNCERTIFIED_T_REASONS:
            return f"unexpected negative reason {report.reason!r}"
        if member:
            return "ring member by construction reported as a non-member"
        return None

    return check


def _caratheodory_check(d, pts):
    def check(result) -> Optional[str]:
        indices, coeffs = result
        if any(c <= 0 for c in coeffs):
            return "Caratheodory coefficient is not positive"
        error = checks.combination_error(list(zip(indices, coeffs)), pts, d)
        if error:
            return error
        if not checks.affinely_independent([pts[i] for i in indices]):
            return "Caratheodory support is affinely dependent"
        return None

    return check


# ---------------------------------------------------------------------------
# formula: chain-formula synthesis, verification and satisfaction
# ---------------------------------------------------------------------------

#: Common denominators, rotating with the round; formula size grows with them.
DENOMINATORS = (7, 12, 20, 30, 45, 64, 90, 128)


def _mixed_coefficients(rng: random.Random, k: int, den: int) -> list[Fraction]:
    """k nonzero coefficients over one denominator, summing to 1, one negative."""
    while True:
        nums = [rng.choice((-1, 1)) * rng.randint(1, den) for _ in range(k - 1)]
        last = den - sum(nums)
        if last != 0 and abs(last) <= 2 * den and min(nums + [last]) < 0:
            return [Fraction(n, den) for n in nums + [last]]


def make_formula(ba, rng: random.Random, rounds: int, tiny: bool) -> Workload:
    formula = ba.formula
    arities = (2, 3) if tiny else (2, 3, 4, 5)
    denominators = (4, 6) if tiny else DENOMINATORS
    slots = [(k, primes) for k in arities for primes in RINGS]
    queries = []
    for r in range(rounds):
        for s, (k, primes) in enumerate(slots):
            den = denominators[(r + s) % len(denominators)]
            xi = _mixed_coefficients(rng, k, den)
            ring = ba.RingSpec(primes)
            pts = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(2)) for _ in range(k)]
            target = _combine(xi, pts)
            shifted = (target[0] + 1, target[1])

            def call(xi=xi, ring=ring, pts=pts, target=target, shifted=shifted):
                phi = formula.synth_phi(xi, ring)
                return (
                    phi,
                    formula.verify_phi(phi, xi),
                    formula.check_satisfaction(phi, pts, target),
                    formula.check_satisfaction(phi, pts, shifted),
                )

            def check(result, pts=pts, target=target, primes=primes) -> Optional[str]:
                phi, verified, witness, shifted_witness = result
                if verified is not True:
                    return "formula fails verify_phi"
                if shifted_witness is not None:
                    return "shifted target reported satisfiable"
                return checks.formula_witness_error(phi, pts, target, witness, primes)

            label = f"k={k} den={den} ring={list(primes)} xi={[str(c) for c in xi]}"
            queries.append(Query(label, call, check))
    return Workload(
        "formula",
        queries,
        len(slots),
        trace_rounds=14,
        properties={
            "arities": list(arities),
            "common_denominators": list(denominators),
            "rings_inverted_primes": [list(p) for p in RINGS],
            "point_dimension": 2,
            "slots_per_round": len(slots),
        },
    )


# ---------------------------------------------------------------------------
# polytope: affine equivalence and barycentric-algebra isomorphism
# ---------------------------------------------------------------------------

#: (dimension, vertex count); every slot runs once equivalent, once not.
#: Pentagons appear twice, which puts the median inside the low-variance
#: non-equivalent pentagon cell instead of between two cells.
POLYTOPE_SHAPES = ((2, 4), (2, 5), (2, 5), (2, 6), (3, 5))


def _curve_points(rng: random.Random, dim: int, n: int) -> list[tuple[Fraction, ...]]:
    """Points on the moment curve (t, t^2[, t^3]); all of them are vertices."""
    ts = rng.sample(range(-9, 10) if dim == 2 else range(-5, 6), n)
    return [tuple(Fraction(t**e) for e in range(1, dim + 1)) for t in ts]


def _random_map(rng: random.Random, dim: int):
    """A random unimodular integer affine map: a signed permutation followed
    by two shears.  Determinant +-1 keeps coordinate bit lengths, and so query
    costs, from drifting with the seed."""
    matrix = [[Fraction(0)] * dim for _ in range(dim)]
    for row, col in enumerate(rng.sample(range(dim), dim)):
        matrix[row][col] = Fraction(rng.choice((-1, 1)))
    for _ in range(2):
        i, j = rng.sample(range(dim), 2)
        factor = rng.choice((-2, -1, 1, 2))
        matrix[i] = [a + factor * b for a, b in zip(matrix[i], matrix[j])]
    return matrix, [Fraction(rng.randint(-5, 5)) for _ in range(dim)]


def _image(rng: random.Random, points):
    matrix, translation = _random_map(rng, len(points[0]))
    out = [checks.apply_map(matrix, translation, p) for p in points]
    rng.shuffle(out)
    return out


def make_polytope(ba, rng: random.Random, rounds: int, tiny: bool) -> Workload:
    hull, affine = ba.hull, ba.affine
    shapes = ((2, 4), (2, 5)) if tiny else POLYTOPE_SHAPES
    slots = [(dim, n, equivalent) for dim, n in shapes for equivalent in (True, False)]
    queries = []
    for r in range(rounds):
        for s, (dim, n, equivalent) in enumerate(slots):
            left = _image(rng, _curve_points(rng, dim, n))
            if equivalent:
                right = _image(rng, left)
            else:
                invariant = checks.volume_invariant(left)
                while True:  # a different curve sample, proven non-equivalent
                    right = _image(rng, _curve_points(rng, dim, n))
                    if checks.volume_invariant(right) != invariant:
                        break
            use_iso = (r + s) % 2 == 1
            primes = RINGS[(r + s) % len(RINGS)]
            if use_iso:
                ring = ba.RingSpec(primes)
                call = lambda left=left, right=right, ring=ring, seed=r: affine.iso_decide(
                    hull.VPolytope(left), hull.VPolytope(right), ring, samples=10, seed=seed
                )
            else:
                call = lambda left=left, right=right: affine.affine_equivalence(
                    hull.VPolytope(left), hull.VPolytope(right)
                )
            label = (
                f"{'iso_decide' if use_iso else 'affine_equivalence'} dim={dim} n={n} "
                f"{'equivalent' if equivalent else 'non-equivalent'}"
            )
            queries.append(Query(label, call, _equivalence_check(left, right, equivalent, use_iso)))
    return Workload(
        "polytope",
        queries,
        len(slots),
        trace_rounds=10,
        properties={
            "shapes_dim_vertices": [list(x) for x in shapes],
            "equivalent_share": 0.5,
            "iso_decide_share": 0.5,
            "slots_per_round": len(slots),
        },
    )


def _equivalence_check(left, right, equivalent, use_iso):
    def check(verdict) -> Optional[str]:
        decided = verdict.isomorphic if use_iso else verdict.equivalent
        if decided != equivalent:
            return f"verdict {decided} on a pair built to be {equivalent}"
        if not equivalent:
            return None  # the volume invariant proved non-equivalence in set-up
        if use_iso and not verdict.homomorphism_exact:
            return "isomorphism witness failed its homomorphism spot-check"
        psi = verdict.witness
        return checks.maps_onto(psi.matrix, psi.translation, left, right)

    return check


# ---------------------------------------------------------------------------
# cli: every subcommand in process through cli.main, with malformed inputs
# ---------------------------------------------------------------------------

#: A fixed formula for x -> y = -1/2 x0 + 3/2 x1 over Z[1/3].
CANONICAL_FORMULA = json.dumps(
    {
        "arity": 2,
        "variables": 7,
        "inputs": [[0, 0], [4, 1]],
        "output": 6,
        "relations": [[0, 3, "1/3", 1], [1, 4, "1/3", 2], [2, 5, "1/3", 3], [3, 6, "1/3", 4], [6, 3, "1/3", 5]],
    }
)


def _ring_json(primes) -> str:
    return json.dumps({"inverted_primes": list(primes)})


def _set_json(points) -> str:
    return json.dumps([[str(c) for c in p] for p in points])


def _point_text(point) -> str:
    return ",".join(str(c) for c in point)


def _random_term(rng: random.Random, arity: int, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return f"x{rng.randrange(arity)}"
    left = _random_term(rng, arity, depth - 1)
    right = _random_term(rng, arity, depth - 1)
    return f"(op {left} {right} {Fraction(rng.randint(-3, 7), rng.randint(1, 4))})"


def _cli_cases(rng: random.Random, r: int):
    """One round of (label, argv, expectation, check on the result).

    expectation is "report" (valid input, the report is checked) or
    "either" (malformed input: a report or a structured error both count).
    """
    primes = RINGS[r % len(RINGS)]
    pts2 = [_point(rng, 2, 4) for _ in range(4)]
    weights = [Fraction(rng.randint(1, 5)) for _ in pts2]
    member = _combine([w / sum(weights) for w in weights], pts2)
    ring_weights = _ring_weights(rng, primes, 3)
    ring_pts = [_point(rng, 2, 4) for _ in range(3)]
    ring_member = _combine(ring_weights, ring_pts)
    line = sorted({Fraction(rng.randint(-6, 6)) for _ in range(3)})
    line_point = (Fraction(rng.randint(-12, 12), 4),)
    k = rng.choice((2, 3))
    den = rng.randint(3, 12)
    xi = _mixed_coefficients(rng, k, den)
    quad = _curve_points(rng, 2, 4)
    quad_equivalent = rng.random() < 0.5
    quad_other = _image(rng, quad) if quad_equivalent else _image(rng, _curve_points(rng, 2, 4))
    if not quad_equivalent and checks.volume_invariant(quad) == checks.volume_invariant(quad_other):
        quad_equivalent = None  # not provably different; accept either verdict
    tri = [_point(rng, 2, 4) for _ in range(3)]
    while not checks.affinely_independent(tri):
        tri = [_point(rng, 2, 4) for _ in range(3)]
    formula_ok = rng.random() < 0.5
    formula_coeffs = "-1/2,3/2" if formula_ok else f"{Fraction(-1, den)},{Fraction(den + 1, den)}"
    seed = rng.randint(0, 10**6)
    tri_inner = [_point(rng, 2, 3) for _ in range(3)]

    def combination(points, target, ring=None):
        def check(result):
            if not result["member"]:
                return "member by construction reported as a non-member"
            support = [(i, Fraction(c)) for i, c in result["combination"]]
            return checks.combination_error(support, points, target, ring)

        return check

    def field_is(key, value):
        return lambda result: None if result[key] == value else f"{key} is {result[key]!r}, expected {value!r}"

    def caratheodory_ok(result):
        support = [(i, Fraction(c)) for i, c in zip(result["indices"], result["coefficients"])]
        return checks.combination_error(support, pts2, member)

    def equivalence_ok(result):
        if quad_equivalent is None or result["equivalent"] == quad_equivalent:
            return None
        return f"equivalent is {result['equivalent']}, expected {quad_equivalent}"

    term_text = _random_term(rng, 3, 3)
    ring = _ring_json(primes)
    line_set = ",".join(map(str, line[:2])) if len(line) > 1 else "0,1"
    tri_text = ";".join(_point_text(p) for p in tri)
    return [
        ("hull-member Q member", _argv("hull-member", point=_point_text(member), set=_set_json(pts2)),
         "report", combination(pts2, member)),
        ("hull-member Q random", _argv("hull-member", point=_point_text(_point(rng, 2, 4)), set=_set_json(pts2)),
         "report", None),
        ("hull-member ring member",
         _argv("hull-member", ring=ring, point=_point_text(ring_member), set=_set_json(ring_pts)),
         "report", combination(ring_pts, ring_member, primes)),
        ("hull-member ring line",
         _argv("hull-member", ring=ring, point=_point_text(line_point), set=",".join(map(str, line))),
         "report", None),
        ("caratheodory", _argv("caratheodory", point=_point_text(member), set=_set_json(pts2)),
         "report", caratheodory_ok),
        ("synth-formula", _argv("synth-formula", ring=ring, coeffs=",".join(map(str, xi))),
         "report", field_is("verified", True)),
        ("verify-formula", _argv("verify-formula", formula=CANONICAL_FORMULA, coeffs=formula_coeffs),
         "report", field_is("valid", formula_ok)),
        ("eval-term", _argv("eval-term", term=term_text, points=tri_text), "report", None),
        ("laws-check", _argv("laws-check", samples=1, seed=seed), "report", field_is("ok", True)),
        ("closure", _argv("closure", set=line_set, ring=ring, depth=1, rounds=1), "report", None),
        ("probe-convexity", _argv("probe-convexity", set=_set_json(tri), ring=ring, samples=2, seed=seed),
         "report", None),
        ("affine-equiv", _argv("affine-equiv", left=_set_json(quad), right=_set_json(quad_other)),
         "report", equivalence_ok),
        ("iso-check", _argv("iso-check", left=_set_json(tri), right=_set_json(tri_inner), ring=ring,
                            samples=5, seed=seed), "report", None),
        ("hexagon-demo", _argv("hexagon-demo"), "report", field_is("holds", True)),
        # malformed inputs
        ("ring with a non-integer prime",
         _argv("hull-member", ring='{"inverted_primes":["x"]}', point="1", set="0,3"), "either", None),
        ("ring with a composite", _argv("hull-member", ring='{"inverted_primes":[4]}', point="1", set="0,3"),
         "either", None),
        ("ring JSON broken", _argv("hull-member", ring='{"inverted_primes":', point="1", set="0,3"),
         "either", None),
        ("zero denominator", _argv("hull-member", point="1/0", set="0,3"), "either", None),
        ("dimension mismatch", _argv("hull-member", point="1,2", set="0,3"), "either", None),
        ("caratheodory non-member", _argv("caratheodory", point="9", set="0,3"), "either", None),
        ("coefficients not summing to 1", _argv("synth-formula", ring=ring, coeffs="1/2,1/3"), "either", None),
        ("truncated term", _argv("eval-term", term="(op x0", points="0;1"), "either", None),
        ("ring with a fractional prime",
         _argv("synth-formula", ring='{"inverted_primes":[2.5]}', coeffs="-1/2,3/2"), "either", None),
    ]


def _argv(command: str, **options) -> list[str]:
    """argv with --option=value pairs, so values starting with '-' parse."""
    return [command] + [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]


def _cli_call(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(expectation, inner):
    def check(result) -> Optional[str]:
        code, text = result
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return "output is not one JSON object"
        if "error" in payload:
            error = payload["error"]
            if code == 0 or not isinstance(error, dict) or not {"code", "message"} <= error.keys():
                return "error payload is not structured"
            return "valid input was rejected" if expectation == "report" else None
        if code != 0 or "result" not in payload:
            return "report without a result or with a nonzero exit code"
        if inner is not None:
            return inner(payload["result"])
        return None

    return check


def make_cli(ba, rng: random.Random, rounds: int, tiny: bool) -> Workload:
    cli = ba.cli
    queries = []
    round_size = 0
    for r in range(rounds):
        cases = _cli_cases(rng, r)
        if tiny:
            cases = [c for c in cases if c[0] != "laws-check"]
        round_size = len(cases)
        for label, argv, expectation, inner in cases:
            call = lambda argv=argv: _cli_call(cli, argv)
            queries.append(Query(f"{label}: {json.dumps(argv)}", call, _cli_check(expectation, inner)))
    return Workload(
        "cli",
        queries,
        round_size,
        trace_rounds=30,
        properties={
            "subcommands": 11,
            "calls_per_round": round_size,
            "malformed_per_round": 9,
            "laws_check_samples_per_round": 0 if tiny else 1,
        },
    )


WORKLOADS = {
    "membership": make_membership,
    "formula": make_formula,
    "polytope": make_polytope,
    "cli": make_cli,
}
