import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from baryalg.formula import (
    MAX_FORMULA_VARIABLES,
    ChainFormula,
    FormulaError,
    Relation,
    _back_substitute,
    _eliminate,
    _equations,
    check_satisfaction,
    format_formula,
    formula_from_json,
    formula_to_json,
    membership_in_convex,
    solved_coefficients,
    synth_phi,
    verify_phi,
)
from baryalg.linalg import solve_affine
from baryalg.scalar import DYADIC, RingSpec, ring_contains

F = Fraction

RING3 = RingSpec([3])


def test_synth_two_point_chain_matches_known_shape():
    # the canonical (-1/2, 3/2) instance over the prime-3 ring
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    assert phi.arity == 2
    assert phi.num_vars == 7
    assert phi.input_bindings == ((0, 0), (4, 1))
    assert phi.output_var == 6
    third = F(1, 3)
    assert phi.relations == (
        Relation(0, 3, third, 1),
        Relation(1, 4, third, 2),
        Relation(2, 5, third, 3),
        Relation(3, 6, third, 4),
        Relation(6, 3, third, 5),
    )
    assert verify_phi(phi, [F(-1, 2), F(3, 2)])
    assert phi.structure.kind == "chain"
    assert phi.structure.scaled == (6, 4)


def test_synth_identity():
    phi = synth_phi([1], DYADIC)
    assert phi.relations == ()
    assert phi.output_var == phi.input_bindings[0][0]
    assert verify_phi(phi, [1])
    witness = check_satisfaction(phi, [(F(5), F(7))], (F(5), F(7)))
    assert witness is not None
    assert check_satisfaction(phi, [(F(5), F(7))], (F(5), F(8))) is None


def test_synth_negative_integer_coefficients():
    # (-1, 2) over the dyadics: seven positions, all-forward chain
    phi = synth_phi([F(-1), F(2)], DYADIC)
    assert phi.num_vars == 7
    assert phi.input_bindings == ((0, 0), (3, 1))
    assert phi.output_var == 6
    assert len(phi.relations) == 5
    assert all(r.param == F(1, 2) for r in phi.relations)
    assert all(r.result == r.left + 1 for r in phi.relations)
    assert verify_phi(phi, [F(-1), F(2)])


def test_zero_coefficients_are_dropped():
    phi = synth_phi([F(0), F(1), F(0)], DYADIC)
    assert phi.arity == 3
    assert phi.relations == ()
    assert verify_phi(phi, [0, 1, 0])
    phi = synth_phi([F(1, 2), F(0), F(1, 2)], DYADIC)
    assert verify_phi(phi, [F(1, 2), 0, F(1, 2)])
    inputs = {j for _, j in phi.input_bindings}
    assert inputs == {0, 2}


def test_synth_requires_unit_sum():
    with pytest.raises(FormulaError):
        synth_phi([F(1, 2), F(1, 4)], DYADIC)


def test_chain_positions_follow_the_line():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    solved = solved_coefficients(phi)
    assert solved is not None
    node = phi.structure
    bottom, top = node.span
    v_prime = node.scaled[1]
    for pos, var in zip(range(bottom, top + 1), node.position_vars):
        expected = (1 - F(pos, v_prime), F(pos, v_prime))
        assert solved[var] == expected


def test_check_satisfaction_witness_values():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    witness = check_satisfaction(phi, [(F(0),), (F(1),)], (F(3, 2),))
    assert witness is not None
    assert [witness[i][0] for i in range(7)] == [
        0,
        F(1, 4),
        F(1, 2),
        F(3, 4),
        1,
        F(5, 4),
        F(3, 2),
    ]
    assert check_satisfaction(phi, [(F(0),), (F(1),)], (F(2),)) is None


def test_satisfaction_validates_relations_exactly():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    witness = check_satisfaction(phi, [(F(2), F(1)), (F(4), F(5))], (F(5), F(7)))
    assert witness is not None
    for rel in phi.relations:
        left, right = witness[rel.left], witness[rel.right]
        combined = tuple(
            (1 - rel.param) * a + rel.param * b for a, b in zip(left, right)
        )
        assert combined == witness[rel.result]


def test_verify_rejects_altered_parameter():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    tampered = list(phi.relations)
    first = tampered[0]
    tampered[0] = Relation(first.left, first.right, F(2, 3), first.result)
    bad = ChainFormula(
        arity=phi.arity,
        num_vars=phi.num_vars,
        input_bindings=phi.input_bindings,
        output_var=phi.output_var,
        relations=tuple(tampered),
        structure=None,
    )
    assert not verify_phi(bad, [F(-1, 2), F(3, 2)])


def test_verify_rejects_arity_mismatch():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    with pytest.raises(FormulaError):
        verify_phi(phi, [1])


def test_split_recursion_is_sign_partitioned():
    xi = [F(-1, 2), F(3, 4), F(-1, 4), F(1)]
    phi = synth_phi(xi, DYADIC)
    node = phi.structure
    assert node.kind == "split"
    neg_node, pos_node, pair_node = node.children
    assert all(c > 0 for c in neg_node.coeffs)
    assert all(c > 0 for c in pos_node.coeffs)
    assert pair_node.kind == "chain"
    assert verify_phi(phi, xi)


def test_all_positive_split():
    xi = [F(1, 3), F(1, 3), F(1, 3)]
    phi = synth_phi(xi, DYADIC)
    assert phi.structure.kind == "split"
    assert verify_phi(phi, xi)
    a = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2))]
    target = (F(2, 3), F(2, 3))
    assert check_satisfaction(phi, a, target) is not None
    assert check_satisfaction(phi, a, (F(1), F(1))) is None


def test_relation_parameters_live_in_open_interval():
    rng = random.Random(6)
    for ring in (DYADIC, RING3, RingSpec([2, 5])):
        for _ in range(10):
            k = rng.randint(1, 4)
            nums = [rng.randint(-6, 6) for _ in range(k)]
            total = sum(nums)
            den = rng.choice([2, 3, 4, 6, 8])
            coeffs = [F(n, den) for n in nums] + [F(den - sum(nums), den)]
            phi = synth_phi(coeffs, ring)
            assert all(
                ring_contains(r.param, ring) and 0 < r.param < 1 for r in phi.relations
            )
            assert verify_phi(phi, coeffs)


def _random_mixed_vector(rng, max_len=6, den_bound=16):
    while True:
        k = rng.randint(2, max_len)
        den = rng.randint(2, den_bound)
        nums = [rng.randint(-2 * den, 2 * den) for _ in range(k - 1)]
        nums.append(den - sum(nums))
        if max(abs(F(n, den)) for n in nums) > 2:
            continue
        if not any(n < 0 for n in nums):
            continue
        return [F(n, den) for n in nums]


def test_soundness_on_random_assignments():
    rng = random.Random(17)
    for _ in range(12):
        xi = _random_mixed_vector(rng)
        phi = synth_phi(xi, DYADIC)
        assert verify_phi(phi, xi)
        for _ in range(4):
            dim = rng.randint(1, 2)
            points = [
                tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim))
                for _ in range(len(xi))
            ]
            target = tuple(
                sum((xi[i] * points[i][j] for i in range(len(xi))), F(0))
                for j in range(dim)
            )
            assert check_satisfaction(phi, points, target) is not None
            off = tuple(target[:-1]) + (target[-1] + F(1, 7),)
            assert check_satisfaction(phi, points, off) is None


def test_one_formula_many_assignments():
    # a single synthesized formula against 50 independent assignments
    rng = random.Random(23)
    xi = [F(-3, 4), F(1, 2), F(5, 4)]
    phi = synth_phi(xi, DYADIC)
    for _ in range(50):
        points = [
            (F(rng.randint(-20, 20), rng.randint(1, 9)),) for _ in range(3)
        ]
        target = (sum((xi[i] * points[i][0] for i in range(3)), F(0)),)
        assert check_satisfaction(phi, points, target) is not None
        wrong = (target[0] + F(rng.randint(1, 9), rng.randint(1, 9)),)
        assert check_satisfaction(phi, points, wrong) is None


def test_membership_in_convex_examples():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    generators = [(F(0),), (F(3, 2),)]
    assert membership_in_convex(phi, [(F(0),), (F(1),)], (F(3, 2),), generators, RING3)
    # output outside the generated hull fails the precondition
    assert not membership_in_convex(
        phi, [(F(0),), (F(1),)], (F(2),), generators, RING3
    )
    # all-positive coefficients keep every witness inside the triangle
    xi = [F(1, 3), F(1, 3), F(1, 3)]
    tri_phi = synth_phi(xi, RING3)
    tri = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    target = (F(1, 3), F(1, 3))
    assert membership_in_convex(tri_phi, tri, target, tri, RING3)


def test_formula_json_roundtrip():
    phi = synth_phi([F(-1, 2), F(3, 4), F(3, 4)], DYADIC)
    text = formula_to_json(phi)
    back = formula_from_json(text)
    assert back.relations == phi.relations
    assert back.input_bindings == phi.input_bindings
    assert back.output_var == phi.output_var
    assert verify_phi(back, [F(-1, 2), F(3, 4), F(3, 4)])
    with pytest.raises(FormulaError):
        formula_from_json("{}")
    data = json.loads(text)
    out_of_range = [
        {"arity": 0},
        {"relations": [[0, 8, "1/2", 7]], "variables": 3},
        {"output": 11},
        {"output": -1},
        {"inputs": [[0, 5], [4, 1]]},
        {"inputs": [[0, 0], [400, 1]]},
        # indices are JSON integers: nothing is truncated or read from a bool
        {"arity": 2.9, "variables": 3.5, "inputs": [[0.7, 0], [1, 1.2]], "output": 2.1},
        {"arity": True},
        {"variables": "3"},
        {"inputs": [[0, 0], [True, 1]]},
        {"output": float(data["output"])},
        {"relations": [[0, 1.0, "1/2", 2]]},
        {"relations": [[0, 1, None, 2]]},
    ]
    for change in out_of_range:
        with pytest.raises(FormulaError):
            formula_from_json(json.dumps({**data, **change}))


def test_formula_json_numbers_are_read_exactly():
    midpoint = {
        "arity": 2,
        "variables": 3,
        "inputs": [[0, 0], [1, 1]],
        "output": 2,
        "relations": [[0, 1, "x", 2]],
    }
    # a numeric parameter is read from its JSON text
    for text, param in [("0.5", F(1, 2)), ("0.50000000000000000001", F(1, 2) + F(1, 10**20)),
                        ("1e-400", F(1, 10**400))]:
        phi = formula_from_json(json.dumps(midpoint).replace('"x"', text))
        assert phi.relations == (Relation(0, 1, param, 2),)


_STRUCTURE_MIDPOINT = {
    "arity": 2,
    "variables": 3,
    "inputs": [[0, 0], [1, 1]],
    "output": 2,
    "relations": [[0, 1, "1/2", 2]],
}
_STRUCTURE_CHAIN = {"kind": "chain", "coeffs": ["1/2", "1/2"], "scaled": [1, 2], "span": [0, 2],
                    "position_vars": [0, 2, 1]}
_STRUCTURE_IDENTITY = {"kind": "identity", "coeffs": ["1"], "variable": 0}


def _assert_structures_are_ignored(structures):
    # no verdict reads a structure, so formula_from_json skips it like any
    # unknown key: each structure, well-formed or not, parses as its absence
    # and leaves verify_phi's verdicts as they are
    bare = formula_from_json(json.dumps(_STRUCTURE_MIDPOINT))
    half, third = [F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]
    assert verify_phi(bare, half) and not verify_phi(bare, third)
    for structure in structures:
        parsed = formula_from_json(json.dumps({**_STRUCTURE_MIDPOINT, "structure": structure}))
        assert parsed == bare and parsed.structure is None
        assert verify_phi(parsed, half) and not verify_phi(parsed, third)


def test_formula_json_structure_is_checked():
    # a structure's kind and field types are no longer checked on reading:
    # those once refused parse like the well-formed ones
    chain, identity = _STRUCTURE_CHAIN, _STRUCTURE_IDENTITY
    _assert_structures_are_ignored([
        chain,
        identity,
        {"kind": "split", "coeffs": ["1"], "children": [identity]},
        {"kind": "identity", "coeffs": [0.25, "3/4"], "variable": 0},
        # fields of the wrong kind or type
        {"kind": "bogus", "coeffs": [], "children": []},
        {**identity, "variable": 2.5},
        {**chain, "span": [True]},
        {**identity, "variable": True},
        {**identity, "variable": "0"},
        {**identity, "coeffs": "1"},
        {**chain, "scaled": [1, 2, 3]},
        {**chain, "span": 0},
        {**chain, "position_vars": [0, "2", 1]},
        {"kind": "split", "coeffs": ["1"], "children": identity},
        {"kind": "split", "coeffs": ["1"], "children": [identity, {**identity, "variable": None}]},
        {"kind": "split", "coeffs": ["1"]},
        {"coeffs": ["1"], "variable": 0},
        [identity],
    ])
    # synthesized structures of every kind are written, and dropped on reading
    for xi, ring in [([F(1)], DYADIC), ([F(-1, 2), F(3, 2)], RING3),
                     ([F(20, 11), F(13, 11), F(-19, 11), F(-19, 11), F(16, 11)], RING3)]:
        text = formula_to_json(synth_phi(xi, ring))
        data = json.loads(text)
        del data["structure"]
        assert formula_to_json(formula_from_json(text)) == json.dumps(data)


def test_formula_json_structure_values_are_checked():
    # a structure's variables and spans are no longer checked against the
    # formula: those that do not fit it parse as its absence
    chain, identity = _STRUCTURE_CHAIN, _STRUCTURE_IDENTITY
    _assert_structures_are_ignored([
        {**identity, "variable": 99},
        {**identity, "variable": 3},
        {**identity, "variable": -1},
        {"kind": "split", "coeffs": ["1"], "children": [chain, {**identity, "variable": 3}]},
        {**chain, "span": [5, -5], "position_vars": [-7]},
        {**chain, "position_vars": [0, 2, -7]},
        {**chain, "position_vars": [0, 2, 3]},
        {**chain, "span": [2, 0]},
        {**chain, "span": [0, 3]},
        {**chain, "span": [0, 1]},
        {**chain, "span": [0, 0], "position_vars": []},
        {**chain, "span": [1, 0], "position_vars": []},
    ])


def test_format_formula_text():
    phi = synth_phi([F(-1, 2), F(3, 2)], RING3)
    text = format_formula(phi)
    assert text.startswith("(∃u0)(∃u1)(∃u2)(∃u3)(∃u4)(∃u5)(∃u6)(")
    assert "x0 = u0 & x1 = u4" in text
    assert "u0 u3 1/3 = u1" in text
    assert text.endswith("y = u6)")


def _chain_nodes(node):
    if node.kind == "chain":
        yield node
    for child in node.children:
        yield from _chain_nodes(child)


def _large_prime_vectors():
    rng = random.Random(31)
    vectors = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)], [F(-1, 2), F(3, 2)]]
    for _ in range(3):
        vectors.append(_random_mixed_vector(rng, max_len=5, den_bound=12))
    return vectors


@pytest.mark.parametrize("p", [11, 13, 31])
def test_large_prime_rings_synthesize(p):
    # one span of width max(natural, 2p - 3) per chain, for any smallest prime
    ring = RingSpec([p])
    rng = random.Random(p)
    for xi in _large_prime_vectors():
        phi = synth_phi(xi, ring)
        assert verify_phi(phi, xi)
        assert all(r.param == F(1, p) for r in phi.relations)
        for node in _chain_nodes(phi.structure):
            u_s, v_s = node.scaled
            natural = max(u_s, v_s) - min(0, u_s)
            bottom, top = node.span
            assert bottom == min(0, u_s)
            assert top - bottom == max(natural, 2 * p - 3)
            assert len(node.position_vars) == top - bottom + 1
        points = [(F(rng.randint(-9, 9), rng.randint(1, 5)),) for _ in xi]
        target = (sum((c * q[0] for c, q in zip(xi, points)), F(0)),)
        assert check_satisfaction(phi, points, target) is not None
        assert check_satisfaction(phi, points, (target[0] + F(1, 3),)) is None


def test_synthesis_solves_no_system(monkeypatch):
    import baryalg.formula as formula_module

    def refuse(*args, **kwargs):
        raise AssertionError("synth_phi must not solve a system")

    monkeypatch.setattr(formula_module, "_eliminate", refuse)
    for ring in (DYADIC, RING3, RingSpec([11]), RingSpec([31])):
        for xi in _large_prime_vectors():
            synth_phi(xi, ring)


def test_each_formula_is_eliminated_once(monkeypatch):
    import baryalg.formula as formula_module

    calls = []

    def counting(equations):
        calls.append(1)
        return _eliminate(equations)

    monkeypatch.setattr(formula_module, "_eliminate", counting)
    xi = [F(-1, 2), F(3, 4), F(3, 4)]
    phi = synth_phi(xi, RING3)
    points = [(F(1), F(2)), (F(-3, 2), F(0)), (F(5), F(1, 3))]
    target = tuple(sum((c * q[t] for c, q in zip(xi, points)), F(0)) for t in range(2))
    assert verify_phi(phi, xi)
    assert solved_coefficients(phi)[phi.output_var] == tuple(xi)
    assert check_satisfaction(phi, points, target) is not None
    assert check_satisfaction(phi, points, (target[0] + 1, target[1])) is None
    assert len(calls) == 1
    copy = formula_from_json(formula_to_json(phi))
    assert verify_phi(copy, xi)
    assert len(calls) == 2


def test_large_prime_chain_stays_sparse(monkeypatch):
    # the (-1/2, 3/2) chain over Z[1/211]: 420 variables and 420 rows.  Pivoting
    # on the largest column keeps every stored row as short as a relation.
    import baryalg.formula as formula_module

    phi = synth_phi([F(-1, 2), F(3, 2)], RingSpec([211]))
    lookups = []

    class CountingPivots:
        def __init__(self, pivots):
            self.pivots = pivots

        def __contains__(self, col):
            return col in self.pivots

        def __getitem__(self, col):
            lookups.append(col)
            return self.pivots[col]

    reduce = formula_module._reduce
    monkeypatch.setattr(
        formula_module, "_reduce", lambda row, pivots: reduce(row, CountingPivots(pivots))
    )
    equations = _equations(phi)
    pivots, _, conditions = _eliminate(equations)
    assert len(equations) == phi.num_vars == 420
    assert len(pivots) == 420 and not conditions
    assert len(lookups) <= 2 * len(equations)
    for row in pivots.values():
        # variables are the columns c >= 0; the symbols x_0, x_1 are -1, -2
        assert len([c for c in row if c >= 0]) <= 4
        assert max(abs(x).bit_length() for x in row.values()) <= 64


#: sha256 of the solved systems of _solver_grid() and _hand_grid(), computed
#: with a kernel that divided the row by its content after every reduction
#: step: dividing once, when a row is stored, gives the same pivot rows, forms
#: and conditions, so the same free variables and the same signs.
SOLVER_GRID_SHA256 = "8169aa9756b766a0fb8568a68e710ca024bc7b81a549492c0ca70426c0081d74"
HAND_GRID_SHA256 = "b456bb0317a4a065b98e270bc5b8193e603d9525f3ccc8dbf6dae464c4a0009a"


def _solver_grid():
    """Coefficient vectors like the benchmark's formula workload: k 2-5 mixed
    signs over one common denominator 7-128, over Z[1/2], Z[1/3] and Z[1/10];
    then the five-coefficient vector over Z[1/211]."""
    rng = random.Random(24)
    for k in range(2, 6):
        for primes in ((2,), (3,), (2, 5)):
            for den in (7, 12, 20, 30, 45, 64, 90, 128):
                while True:
                    nums = [rng.choice((-1, 1)) * rng.randint(1, den) for _ in range(k - 1)]
                    last = den - sum(nums)
                    if last and abs(last) <= 2 * den and min(nums + [last]) < 0:
                        break
                yield [F(n, den) for n in nums + [last]], RingSpec(primes)
    yield [F(20, 11), F(13, 11), F(-19, 11), F(-19, 11), F(16, 11)], RingSpec([211])


def _hand_grid():
    """Small hand-written formulas, many of them underdetermined or
    inconsistent: any parameter, repeated and unbound variables."""
    rng = random.Random(7)
    for _ in range(2000):
        n, arity = rng.randint(1, 8), rng.randint(1, 3)
        bindings = [(rng.randrange(n), rng.randrange(arity)) for _ in range(rng.randint(0, arity + 1))]
        relations = [
            Relation(rng.randrange(n), rng.randrange(n), F(rng.randint(-18, 27), rng.randint(1, 9)),
                     rng.randrange(n))
            for _ in range(rng.randint(0, n + 1))
        ]
        yield ChainFormula(arity, n, tuple(bindings), rng.randrange(n), tuple(relations))


def _solution_digest(phis):
    digest = hashlib.sha256()
    for phi in phis:
        solution = phi._solution
        digest.update(repr((solution.forms, solution.conditions, solution.determined)).encode())
    return digest.hexdigest()


def test_solver_output_is_pinned(monkeypatch):
    import baryalg.formula as formula_module

    eliminated = []

    def recording(equations):
        eliminated.append(_eliminate(equations))
        return eliminated[-1]

    monkeypatch.setattr(formula_module, "_eliminate", recording)
    grid = list(_solver_grid())
    phis = [synth_phi(xi, ring) for xi, ring in grid]
    assert _solution_digest(phis) == SOLVER_GRID_SHA256
    assert all(verify_phi(phi, xi) for phi, (xi, _) in zip(phis, grid))
    hand = list(_hand_grid())
    assert _solution_digest(hand) == HAND_GRID_SHA256
    assert {s.determined for s in (phi._solution for phi in hand)} == {True, False}
    assert len(eliminated) == len(phis) + len(hand)
    for pivots, _, conditions in eliminated:
        assert all(gcd(*row.values()) == 1 for row in [*pivots.values(), *conditions])


def _three_term_vector(v, big_v):
    # split chain of width v + 1, then a pair chain of width big_v + 1 whose
    # ends are already bound: 1 + (v + 1) + (big_v - 1) variables over Z[1/2]
    k1 = 1 - F(1, big_v)
    return [F(1, big_v), k1 * (1 - F(1, v)), k1 * F(1, v)]


def test_synthesis_respects_the_size_limit():
    limit = MAX_FORMULA_VARIABLES
    # one chain over positions 0..v' has v' + 1 variables
    assert synth_phi([1 - F(1, limit - 1), F(1, limit - 1)], DYADIC).num_vars == limit
    with pytest.raises(FormulaError):
        synth_phi([1 - F(1, limit), F(1, limit)], DYADIC)
    # every chain fits, but the three-term total is one over
    half = limit // 2
    assert synth_phi(_three_term_vector(half - 1, half), DYADIC).num_vars == limit
    with pytest.raises(FormulaError):
        synth_phi(_three_term_vector(half, half), DYADIC)


def test_formula_json_respects_the_size_limit():
    limit = MAX_FORMULA_VARIABLES
    midpoint = {
        "arity": 2,
        "variables": 3,
        "inputs": [[0, 0], [1, 1]],
        "output": 2,
        "relations": [[0, 1, "1/2", 2]],
    }
    assert formula_from_json(json.dumps({**midpoint, "variables": limit})).num_vars == limit
    for change in (
        {"variables": limit + 1},
        {"relations": [[0, 1, "1/2", 2]] * (limit + 1)},
    ):
        with pytest.raises(FormulaError):
            formula_from_json(json.dumps({**midpoint, **change}))


@st.composite
def _hand_formulas(draw):
    """Small formulas with any parameter, repeated and unbound variables."""
    n = draw(st.integers(min_value=1, max_value=6))
    arity = draw(st.integers(min_value=1, max_value=3))
    var = st.integers(min_value=0, max_value=n - 1)
    bindings = draw(
        st.lists(st.tuples(var, st.integers(min_value=0, max_value=arity - 1)), max_size=arity + 1)
    )
    params = st.fractions(min_value=-2, max_value=3, max_denominator=9)
    relations = draw(st.lists(st.builds(Relation, var, var, params, var), max_size=n + 1))
    return ChainFormula(arity, n, tuple(bindings), draw(var), tuple(relations))


def _dense_solutions(phi, inputs, dim, target=None):
    """solve_affine per coordinate on the same system, written out densely."""
    n = phi.num_vars
    rows = [[F(0)] * n]  # a zero row keeps the matrix n columns wide
    rhs = [(F(0),) * dim]
    for var, j in phi.input_bindings:
        row = [F(0)] * n
        row[var] = F(1)
        rows.append(row)
        rhs.append(inputs[j])
    for rel in phi.relations:
        row = [F(0)] * n
        row[rel.left] += 1 - rel.param
        row[rel.right] += rel.param
        row[rel.result] -= 1
        rows.append(row)
        rhs.append((F(0),) * dim)
    if target is not None:
        row = [F(0)] * n
        row[phi.output_var] = F(1)
        rows.append(row)
        rhs.append(target)
    return [solve_affine(rows, [b[t] for b in rhs]) for t in range(dim)]


def _assert_solves(phi, values, inputs):
    assert sorted(values) == list(range(phi.num_vars))
    assert all(type(x) is Fraction for vec in values.values() for x in vec)
    for var, j in phi.input_bindings:
        assert values[var] == tuple(inputs[j])
    for rel in phi.relations:
        left, right = values[rel.left], values[rel.right]
        combined = tuple((1 - rel.param) * a + rel.param * b for a, b in zip(left, right))
        assert combined == values[rel.result]


@settings(max_examples=300, deadline=None)
@given(_hand_formulas(), st.data())
def test_solver_agrees_with_dense_solve(phi, data):
    k = phi.arity
    units = [tuple(F(int(t == j)) for t in range(k)) for j in range(k)]
    pivots, order, conditions = _eliminate(_equations(phi))
    solved = None
    if not conditions:
        forms = _back_substitute(phi.num_vars, pivots, order, k)
        values = {v: tuple(F(n, den) for n in nums) for v, (nums, den) in enumerate(forms)}
        solved = values, [v for v in range(phi.num_vars) if v not in pivots]
    dense = _dense_solutions(phi, units, k)
    assert (solved is not None) == all(d is not None for d in dense)
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    dim = data.draw(st.integers(min_value=1, max_value=2))
    points = [tuple(data.draw(st.lists(rational, min_size=dim, max_size=dim))) for _ in range(k)]
    target = tuple(data.draw(st.lists(rational, min_size=dim, max_size=dim)))
    if solved is not None:
        values, free = solved
        kernel = dense[0][1]
        assert len(free) == len(kernel)
        _assert_solves(phi, values, units)
        if not kernel:
            assert all(values[v][t] == dense[t][0][v] for t in range(k) for v in values)
        assert solved_coefficients(phi) == (None if kernel else values)
        if data.draw(st.booleans()):
            # the particular solution's output is a target the formula meets
            coeffs = values[phi.output_var]
            target = tuple(sum((c * q[i] for c, q in zip(coeffs, points)), F(0)) for i in range(dim))
    else:
        assert solved_coefficients(phi) is None
    witness = check_satisfaction(phi, points, target)
    dense = _dense_solutions(phi, points, dim, target)
    assert (witness is not None) == all(d is not None for d in dense)
    if witness is not None:
        _assert_solves(phi, witness, points)
        assert witness[phi.output_var] == target
