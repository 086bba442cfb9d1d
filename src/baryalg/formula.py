"""Synthesis of existential chain formulas for affine combinations.

For rational coefficients xi_0..xi_k summing to 1 and a coefficient ring,
synth_phi builds a conjunction of bindings and three-variable relations
u_a u_b (1/p) = u_c, with p the smallest inverted prime, such that for all
points a_0..a_k, b: the formula is satisfiable with x_i = a_i, y = b
exactly when b = sum(xi_i * a_i).  It does so over every Z[S^-1].

Two-coefficient instances become a single chain of equally spaced points on
the line through the two inputs: with xi_1 = u/v rescaled to u'/v' so that
v' exceeds p, variable u_i sits at position i/v', inputs bind positions 0
and v', the output binds position u', and the relations force the spacing.
The chain spans [bottom, top] with bottom = min(0, u') and
top = max(v', u', bottom + 2p - 3), so it has top - bottom + 1 variables
and top - bottom - 1 relations.  Longer instances split the index set by
coefficient sign and recurse, the partial sums combining through one more
two-point chain.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .hull import hull_member_Q, hull_member_T
from .mode import Point, as_point
from .scalar import (
    RingSpec,
    format_rational,
    parse_rational,
    smallest_inverted_prime,
)


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Relation:
    """The atom u_left u_right (param) = u_result."""

    left: int
    right: int
    param: Fraction
    result: int


@dataclass(frozen=True)
class SynthNode:
    """Recursion tree of a synthesized formula (for inspection and reports)."""

    kind: str  # "identity" | "chain" | "split"
    coeffs: tuple[Fraction, ...]
    children: tuple["SynthNode", ...] = ()
    variable: int = -1
    scaled: tuple[int, int] = (0, 0)  # chain: (scaled numerator, denominator)
    span: tuple[int, int] = (0, 0)  # chain: position range
    position_vars: tuple[int, ...] = ()  # chain: variable index per position


@dataclass(frozen=True)
class ChainFormula:
    """Flattened existential formula: bindings plus chain relations.

    input_bindings are (variable, input index) pairs meaning u_var = x_j;
    output_var is the variable bound to y.  Every relation parameter lies in
    the open unit interval of the ring the formula was built for.
    """

    arity: int
    num_vars: int
    input_bindings: tuple[tuple[int, int], ...]
    output_var: int
    relations: tuple[Relation, ...]
    structure: Optional[SynthNode] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Shared exact solver for the affine constraint systems
# ---------------------------------------------------------------------------


def _solve_equations(num_vars: int, equations, veclen: int):
    """Solve a sparse exact linear system whose unknowns are vectors.

    equations: (dict variable -> coefficient, rhs vector) pairs.  Returns
    (values, free_variables) or None when inconsistent; free variables are
    assigned the zero vector.
    """
    zero = tuple([Fraction(0)] * veclen)
    pivots: dict[int, tuple[dict, tuple]] = {}
    order: list[int] = []
    for row_in, rhs in equations:
        row = {c: Fraction(v) for c, v in row_in.items() if v != 0}
        rhs = tuple(Fraction(x) for x in rhs)
        while (piv := next((c for c in sorted(row) if c in pivots), None)) is not None:
            f = row.pop(piv)
            prow, prhs = pivots[piv]
            for c, v in prow.items():
                if c == piv:
                    continue
                nv = row.get(c, Fraction(0)) - f * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
            rhs = tuple(a - f * b for a, b in zip(rhs, prhs))
        if not row:
            if any(x != 0 for x in rhs):
                return None
            continue
        col = min(row)
        inv = Fraction(1) / row[col]
        pivots[col] = ({c: v * inv for c, v in row.items()}, tuple(x * inv for x in rhs))
        order.append(col)
    free = [v for v in range(num_vars) if v not in pivots]
    values: dict[int, tuple] = {v: zero for v in free}
    for col in reversed(order):
        prow, acc = pivots[col]
        for c, v in prow.items():
            if c != col:
                acc = tuple(a - v * o for a, o in zip(acc, values[c]))
        values[col] = acc
    return values, free


def _equations(phi: ChainFormula, inputs: Sequence[tuple]):
    """The system of phi with input j bound to the vector inputs[j].

    One row u_var = inputs[j] per binding, then one homogeneous row
    (1-q) u_left + q u_right - u_result = 0 per relation.
    """
    eqs = [({var: Fraction(1)}, inputs[j]) for var, j in phi.input_bindings]
    zero = tuple(Fraction(0) for _ in inputs[0]) if inputs else ()
    for rel in phi.relations:
        row: dict[int, Fraction] = {}
        for var, coef in ((rel.left, 1 - rel.param), (rel.right, rel.param), (rel.result, Fraction(-1))):
            row[var] = row.get(var, Fraction(0)) + coef
        eqs.append((row, zero))
    return eqs


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _build_chain(xi1: Fraction, p: int, alloc: Iterator[int], relations: list, in0, in1):
    """Lay out one equally spaced chain realizing y = (1-xi1) x0 + xi1 x1.

    With the layout of the module docstring, the inputs (in0 and in1 when
    given, else fresh variables) bind positions 0 and v'.  Forward relations
    (i, i+p, i+1) run over i = bottom..top-p, then p-2 reversed relations
    (j, j-p, j-1) over j = top..top-p+3.  Position i = (1 - i/v') x0 +
    (i/v') x1 satisfies them, and nothing else does:

    - The forward relations are the recurrence
      u_{i+p} = p u_{i+1} - (p-1) u_i with characteristic polynomial
      f(x) = x^p - p x + p - 1 = (x-1)^2 h(x).
    - h has p-2 roots, simple, nonzero and different from 1, so the
      solutions are the affine sequences plus p-2 geometric modes r^i.
    - A reversed relation at j vanishes on affine sequences; on the mode
      r^i it evaluates to r^(j-p) g(r)/p with g(x) = x^p f(1/x).
    - g(r) != 0: if both r and 1/r were roots of f, then r + 1/r = 2, so
      r = 1.
    - The p-2 consecutive reversed relations therefore form a scaled
      Vandermonde matrix on the modes, which is nonsingular, and the two
      bindings then fix the affine part.

    So the system is uniquely solvable exactly when the p-2 reversed
    relations fit, that is when top - bottom >= 2p - 3: one span, and no
    system to solve here.
    """
    c = p // xi1.denominator + 1
    u_s, v_s = c * xi1.numerator, c * xi1.denominator
    bottom = min(0, u_s)
    top = max(v_s, u_s, bottom + 2 * p - 3)
    bound = {0: in0, v_s: in1}
    var_at = {
        pos: next(alloc) if bound.get(pos) is None else bound[pos]
        for pos in range(bottom, top + 1)
    }
    param = Fraction(1, p)
    forward = [(i, i + p, i + 1) for i in range(bottom, top - p + 1)]
    backward = [(j, j - p, j - 1) for j in range(top, top - p + 2, -1)]
    relations.extend(
        Relation(var_at[a], var_at[b], param, var_at[r]) for a, b, r in forward + backward
    )
    node = SynthNode(
        kind="chain",
        coeffs=(1 - xi1, xi1),
        scaled=(u_s, v_s),
        span=(bottom, top),
        position_vars=tuple(var_at.values()),
    )
    return var_at[0], var_at[v_s], var_at[u_s], node


def _build(pairs, p, alloc, relations, bindings):
    """pairs: nonzero (input index, coefficient) summing to 1; returns (output var, node)."""
    if len(pairs) == 1:
        var = next(alloc)
        bindings.append((var, pairs[0][0]))
        return var, SynthNode(kind="identity", coeffs=(Fraction(1),), variable=var)
    if len(pairs) == 2:
        (i0, _), (i1, c1) = pairs
        v0, v1, out, node = _build_chain(c1, p, alloc, relations, None, None)
        bindings += [(v0, i0), (v1, i1)]
        return out, node
    negatives = [pair for pair in pairs if pair[1] < 0]
    group_a = negatives if negatives else [pairs[0]]
    group_b = [pair for pair in pairs if pair not in group_a]
    k0 = sum((c for _, c in group_a), Fraction(0))
    k1 = sum((c for _, c in group_b), Fraction(0))
    out_a, node_a = _build([(i, c / k0) for i, c in group_a], p, alloc, relations, bindings)
    out_b, node_b = _build([(i, c / k1) for i, c in group_b], p, alloc, relations, bindings)
    _, _, out, pair_node = _build_chain(k1, p, alloc, relations, out_a, out_b)
    coeffs = tuple(c for _, c in pairs)
    return out, SynthNode(kind="split", coeffs=coeffs, children=(node_a, node_b, pair_node))


def synth_phi(xi: Sequence, ring: RingSpec) -> ChainFormula:
    """Existential chain formula whose models are exactly y = sum(xi_i x_i).

    Every relation parameter is 1/p for the ring's smallest inverted prime
    p, which lies in the ring's open unit interval.
    """
    coeffs = [Fraction(c) for c in xi]
    if not coeffs:
        raise FormulaError("need at least one coefficient")
    if sum(coeffs) != 1:
        raise FormulaError("coefficients must sum to exactly 1")
    p = smallest_inverted_prime(ring)
    pairs = [(i, c) for i, c in enumerate(coeffs) if c != 0]
    alloc = itertools.count()
    relations: list[Relation] = []
    bindings: list[tuple[int, int]] = []
    out, node = _build(pairs, p, alloc, relations, bindings)
    return ChainFormula(
        arity=len(coeffs),
        num_vars=next(alloc),  # the first index never allocated
        input_bindings=tuple(bindings),
        output_var=out,
        relations=tuple(relations),
        structure=node,
    )


# ---------------------------------------------------------------------------
# Verification and satisfaction
# ---------------------------------------------------------------------------


def verify_phi(phi: ChainFormula, xi: Sequence) -> bool:
    """Re-solve the constraint system symbolically and compare with xi.

    True iff the bindings and relations determine every existential variable
    uniquely from x_0..x_k and the solved output equals sum(xi_i x_i)
    identically.
    """
    coeffs = tuple(Fraction(c) for c in xi)
    if len(coeffs) != phi.arity:
        raise FormulaError("coefficient count does not match formula arity")
    solved = solved_coefficients(phi)
    return solved is not None and solved[phi.output_var] == coeffs


def solved_coefficients(phi: ChainFormula) -> Optional[dict[int, tuple[Fraction, ...]]]:
    """Each existential variable as an affine combination of the inputs."""
    k = phi.arity
    units = [tuple(Fraction(int(t == j)) for t in range(k)) for j in range(k)]
    solved = _solve_equations(phi.num_vars, _equations(phi, units), k)
    if solved is None or solved[1]:
        return None
    return solved[0]


def check_satisfaction(
    phi: ChainFormula, points: Sequence[Sequence], b: Sequence
) -> Optional[dict[int, Point]]:
    """Witness assignment for the existential variables, or None.

    All relations are affine, so satisfaction reduces to exact consistency
    of a linear system; by construction this holds exactly when
    b = sum(xi_i * points_i) for the coefficients the formula encodes.
    """
    pts = [as_point(q) for q in points]
    target = as_point(b)
    if len(pts) != phi.arity:
        raise FormulaError("point count does not match formula arity")
    dim = len(target)
    if any(len(q) != dim for q in pts):
        raise FormulaError("inconsistent point dimensions")
    eqs = _equations(phi, pts)
    eqs.append(({phi.output_var: Fraction(1)}, target))
    solved = _solve_equations(phi.num_vars, eqs, dim)
    if solved is None:
        return None
    return {v: solved[0][v] for v in range(phi.num_vars)}


def membership_in_convex(
    phi: ChainFormula,
    points: Sequence[Sequence],
    b: Sequence,
    generators: Sequence[Sequence],
    ring: RingSpec,
) -> bool:
    """Satisfaction with every witness point staying inside the rational hull.

    Requires the bound points and b to lie in the ring hull of the
    generators; returns False when that precondition fails, when the formula
    is unsatisfiable, or when some solved variable escapes the rational hull.
    """
    for q in list(points) + [b]:
        if hull_member_T(q, generators, ring) is None:
            return False
    witness = check_satisfaction(phi, points, b)
    if witness is None:
        return False
    return all(hull_member_Q(w, generators) is not None for w in witness.values())


# ---------------------------------------------------------------------------
# Rendering and JSON
# ---------------------------------------------------------------------------


def format_formula(phi: ChainFormula) -> str:
    """Existential-conjunction rendering, e.g. (∃u0)…(x0 = u0 & … & y = u6)."""
    quantifiers = "".join(f"(∃u{i})" for i in range(phi.num_vars))
    atoms = [f"x{j} = u{var}" for var, j in phi.input_bindings]
    atoms += [
        f"u{r.left} u{r.right} {format_rational(r.param)} = u{r.result}"
        for r in phi.relations
    ]
    atoms.append(f"y = u{phi.output_var}")
    return f"{quantifiers}({' & '.join(atoms)})"


def _node_to_json(node: SynthNode):
    data = {"kind": node.kind, "coeffs": [format_rational(c) for c in node.coeffs]}
    if node.kind == "identity":
        data["variable"] = node.variable
    elif node.kind == "chain":
        data["scaled"] = list(node.scaled)
        data["span"] = list(node.span)
        data["position_vars"] = list(node.position_vars)
    else:
        data["children"] = [_node_to_json(c) for c in node.children]
    return data


def _node_from_json(data) -> SynthNode:
    coeffs = tuple(parse_rational(c) for c in data["coeffs"])
    kind = data["kind"]
    if kind == "identity":
        return SynthNode(kind=kind, coeffs=coeffs, variable=data["variable"])
    if kind == "chain":
        return SynthNode(
            kind=kind,
            coeffs=coeffs,
            scaled=tuple(data["scaled"]),
            span=tuple(data["span"]),
            position_vars=tuple(data["position_vars"]),
        )
    return SynthNode(
        kind=kind,
        coeffs=coeffs,
        children=tuple(_node_from_json(c) for c in data["children"]),
    )


def formula_to_json(phi: ChainFormula) -> str:
    data = {
        "arity": phi.arity,
        "variables": phi.num_vars,
        "inputs": [[var, j] for var, j in phi.input_bindings],
        "output": phi.output_var,
        "relations": [
            [r.left, r.right, format_rational(r.param), r.result] for r in phi.relations
        ],
    }
    if phi.structure is not None:
        data["structure"] = _node_to_json(phi.structure)
    return json.dumps(data)


def formula_from_json(text: str) -> ChainFormula:
    """Parse formula JSON, checking every variable and input index.

    arity must be at least 1, every variable index (bindings, relations,
    output) must lie in [0, variables) and every input index in [0, arity).
    """
    try:
        data = json.loads(text)
        structure = (
            _node_from_json(data["structure"]) if "structure" in data else None
        )
        phi = ChainFormula(
            arity=int(data["arity"]),
            num_vars=int(data["variables"]),
            input_bindings=tuple((int(v), int(j)) for v, j in data["inputs"]),
            output_var=int(data["output"]),
            relations=tuple(
                Relation(int(a), int(b), parse_rational(q), int(r))
                for a, b, q, r in data["relations"]
            ),
            structure=structure,
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormulaError(f"invalid formula JSON: {exc}") from exc
    if phi.arity < 1:
        raise FormulaError(f"invalid formula JSON: arity {phi.arity} is below 1")
    variables = [phi.output_var] + [var for var, _ in phi.input_bindings]
    variables += [x for r in phi.relations for x in (r.left, r.right, r.result)]
    for kind, indices, limit in (
        ("variable", variables, phi.num_vars),
        ("input", [j for _, j in phi.input_bindings], phi.arity),
    ):
        for index in indices:
            if not 0 <= index < limit:
                raise FormulaError(f"invalid formula JSON: {kind} {index} outside [0, {limit})")
    return phi
