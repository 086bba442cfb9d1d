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

A formula's system is eliminated once and cached on the formula
(ChainFormula._solution): every variable as an integer form over x_0..x_{k-1}
and y, and the condition forms that vanish exactly where the system is
consistent.  verify_phi and solved_coefficients read those forms, and
check_satisfaction is an integer evaluation of them at the points and the
target, one coordinate at a time.  Each equation is one sparse integer row
over the variables and the symbols x_0..x_{k-1}, y together; elimination is
fraction-free, divides each row by its content once, when the row is stored,
and pivots on the largest column (see _eliminate).
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from .hull import hull_member_Q, hull_member_T
from .mode import Point, as_point
from .scalar import (
    RingSpec,
    format_rational,
    integer_row,
    parse_rational,
    smallest_inverted_prime,
)


class FormulaError(ValueError):
    pass


#: Most variables (and, for parsed JSON, relations) a formula may have.  The
#: solver's time and memory grow with formula size, and a chain has about as
#: many variables as its scaled denominator.  At this size, on Python 3.11 and
#: one core of a 2-vCPU machine, verify_phi took 0.35 s on a two-coefficient
#: chain over the dyadics and 0.26 s over Z[1/19997], but 2.5 s on the
#: five-coefficient [20/11, 13/11, -19/11, -19/11, 16/11] over Z[1/3767]
#: (39401 variables): the reversed relations of a chain much longer than 2p
#: reduce to rows of up to 90000 bits.
MAX_FORMULA_VARIABLES = 40_000


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
    structure is synth_phi's recursion tree, for reports: formula_to_json
    writes it and formula_from_json does not read it back, so a parsed
    formula has None.  It takes no part in equality or in any verdict.
    """

    arity: int
    num_vars: int
    input_bindings: tuple[tuple[int, int], ...]
    output_var: int
    relations: tuple[Relation, ...]
    structure: Optional[SynthNode] = field(default=None, compare=False)

    @cached_property
    def _solution(self) -> "_Solution":
        """The system solved once over the symbols x_0..x_{k-1}, y.

        The bindings and relations are eliminated with input j bound to the
        symbol x_j; then the output binding u_out = y is reduced against the
        same pivots.  Only that last row mentions y, so a condition with a y
        term is what is left of it, and the relations alone fix every
        variable exactly when it is the one condition and no variable is
        free.
        """
        k = self.arity
        equations = _equations(self)
        equations.append({self.output_var: 1, -1 - k: 1})
        pivots, order, conditions = _eliminate(equations)
        conditions = tuple(tuple([c.get(-1 - j, 0) for j in range(k + 1)]) for c in conditions)
        determined = len(pivots) == self.num_vars and [c[k] != 0 for c in conditions] == [True]
        forms = _back_substitute(self.num_vars, pivots, order, k + 1)
        return _Solution(forms, conditions, determined)


class _Solution(NamedTuple):
    """A formula's system solved symbolically, as integer forms.

    A form is an integer vector over x_0..x_{k-1}, y.  forms[v] is
    (form, denominator) with u_v = form / denominator, free variables 0;
    the system is consistent exactly where every condition form vanishes.
    determined says that the bindings and relations alone fix every
    variable, so no form of a variable mentions y.
    """

    forms: list[tuple[tuple[int, ...], int]]
    conditions: tuple[tuple[int, ...], ...]
    determined: bool


# ---------------------------------------------------------------------------
# Exact solver for the affine constraint systems
# ---------------------------------------------------------------------------
#
# An equation is one sparse integer row, a dict column -> nonzero coefficient.
# Column c >= 0 is the variable u_c and column -1-j the symbol s_j, with
# s_0..s_{k-1} the inputs x_0..x_{k-1} and s_k the output y; the row stands
# for sum(row[c] u_c for c >= 0) = sum(row[-1-j] s_j).


def _reduce(row: dict[int, int], pivots) -> None:
    """Reduce one row in place against the stored pivot rows.

    Pivot columns are eliminated largest first until none is left in the
    row.  The arithmetic is fraction-free (Bareiss 1968): with pivot entry
    a and row entry f, g = gcd(a, f), row := (a/g) row - (f/g) pivot_row.
    The row is not divided by its content here; _eliminate does that once,
    when it stores the row.  Every step multiplies the row by a/g, which
    has the sign of a, so each intermediate row is a positive multiple of
    the primitive row with the same support: the steps, and the stored row,
    are those that dividing out the content after every step would make.
    """
    while True:
        cols = [c for c in row if c in pivots]
        if not cols:
            return
        piv = max(cols)
        f = row.pop(piv)
        prow = pivots[piv]
        a = prow[piv]
        if a == 1:  # the common unit pivot: no gcd, no scaling
            t = f
        else:
            g = gcd(a, f)
            s, t = a // g, f // g
            if s != 1:
                for c in row:
                    row[c] *= s
        get = row.get
        for c, v in prow.items():
            if c != piv:
                nv = get(c, 0) - t * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]


def _eliminate(equations):
    """Gaussian elimination of the rows, in order, as built by _equations.

    Each row is reduced (_reduce) and then divided by its content, the gcd
    of its entries, so every stored row is primitive.  A row with a
    variable entry left becomes the pivot row of its largest column; a row
    with only symbol entries left is a condition, a form in the symbols
    that must vanish for the system to be consistent; an empty row is
    dropped.  The rows are reduced in place.  Returns (pivots, order,
    conditions): pivots maps a column to its row, and order lists the pivot
    columns as they were made.

    Pivoting on the largest column keeps chains sparse (a Markowitz-style
    choice, 1957).  A chain numbers its variables in position order, so a
    forward relation (i, i+p, i+1) is stored as the pivot row of the
    position i+p it reaches first, without a reduction, and each reversed
    relation at the top needs only a few.  On the 420 rows of a p = 211
    chain this makes 423 reductions and keeps every pivot row within 3
    variable entries of 16 bits; pivoting on the smallest column made 22157
    reductions, with rows of up to 209 entries of 1614 bits.  Over an
    underdetermined system the two rules leave different variables free,
    so a witness may differ; consistency and every determined value do not.
    """
    pivots: dict[int, dict[int, int]] = {}
    order: list[int] = []
    conditions: list[dict[int, int]] = []
    for row in equations:
        _reduce(row, pivots)
        if not row:
            continue
        content = gcd(*row.values())
        if content > 1:
            for c in row:
                row[c] //= content
        col = max(row)
        if col >= 0:
            pivots[col] = row
            order.append(col)
        else:
            conditions.append(row)
    return pivots, order, conditions


def _back_substitute(num_vars: int, pivots, order: list[int], width: int):
    """Each variable as (integer vector over the width symbols, denominator),
    free variables 0.

    Pivot rows are solved in reverse order of creation; every value stays an
    integer vector over one denominator, reduced by its gcd.
    """
    zero = (tuple([0] * width), 1)
    scaled: list[tuple[tuple[int, ...], int]] = [zero] * num_vars
    for col in reversed(order):
        prow = pivots[col]
        den = 1
        for c in prow:
            if 0 <= c < col:
                den = lcm(den, scaled[c][1])
        acc = [0] * width
        for c, v in prow.items():
            if c < 0:
                acc[-1 - c] += den * v
            elif c != col:
                nums, d = scaled[c]
                m = v * (den // d)
                acc = [x - m * y for x, y in zip(acc, nums)]
        den *= prow[col]
        g = gcd(den, *acc)
        scaled[col] = (tuple([x // g for x in acc]), den // g)
    return scaled


def _equations(phi: ChainFormula) -> list[dict[int, int]]:
    """The system of phi as integer rows, input j bound to the symbol x_j.

    One row u_var = x_j per binding, then one homogeneous row
    (b-a) u_left + a u_right - b u_result = 0 per relation with parameter
    a/b, repeated variables merged and zero coefficients dropped.
    """
    eqs = [{var: 1, -1 - j: 1} for var, j in phi.input_bindings]
    for rel in phi.relations:
        a, b = rel.param.as_integer_ratio()
        row = {rel.left: b - a}
        row[rel.right] = row.get(rel.right, 0) + a
        row[rel.result] = row.get(rel.result, 0) - b
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        eqs.append(row)
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
    if top - bottom + 1 > MAX_FORMULA_VARIABLES:
        raise FormulaError(
            f"chain for coefficient {xi1} needs {top - bottom + 1} variables, "
            f"more than {MAX_FORMULA_VARIABLES}"
        )
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
    p, which lies in the ring's open unit interval.  Raises FormulaError
    before laying out a chain of more than MAX_FORMULA_VARIABLES variables,
    and when the formula as a whole has more.
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
    num_vars = next(alloc)  # the first index never allocated
    if num_vars > MAX_FORMULA_VARIABLES:
        raise FormulaError(
            f"formula needs {num_vars} variables, more than {MAX_FORMULA_VARIABLES}"
        )
    return ChainFormula(
        arity=len(coeffs),
        num_vars=num_vars,
        input_bindings=tuple(bindings),
        output_var=out,
        relations=tuple(relations),
        structure=node,
    )


# ---------------------------------------------------------------------------
# Verification and satisfaction
# ---------------------------------------------------------------------------


def verify_phi(phi: ChainFormula, xi: Sequence) -> bool:
    """Compare the symbolically solved output with xi.

    True iff the bindings and relations determine every existential variable
    uniquely from x_0..x_k and the solved output equals sum(xi_i x_i)
    identically.
    """
    coeffs = tuple(Fraction(c) for c in xi)
    if len(coeffs) != phi.arity:
        raise FormulaError("coefficient count does not match formula arity")
    solution = phi._solution
    if not solution.determined:
        return False
    nums, den = solution.forms[phi.output_var]
    return all(Fraction(n, den) == c for n, c in zip(nums, coeffs))


def solved_coefficients(phi: ChainFormula) -> Optional[dict[int, tuple[Fraction, ...]]]:
    """Each existential variable as an affine combination of the inputs."""
    solution = phi._solution
    if not solution.determined:
        return None
    k = phi.arity
    return {
        v: tuple([Fraction(n, den) for n in nums[:k]])
        for v, (nums, den) in enumerate(solution.forms)
    }


def _dot(form: Sequence[int], values: Sequence[int]) -> int:
    return sum(map(operator.mul, form, values))


def check_satisfaction(
    phi: ChainFormula, points: Sequence[Sequence], b: Sequence
) -> Optional[dict[int, Point]]:
    """Witness assignment for the existential variables, or None.

    All relations are affine, so satisfaction is the vanishing of the
    formula's cached condition forms at the points and b, and the witness
    is its cached variable forms evaluated there; by construction this
    holds exactly when b = sum(xi_i * points_i) for the coefficients the
    formula encodes.  Each coordinate is scaled to integers once.
    """
    pts = [as_point(q) for q in points]
    target = as_point(b)
    if len(pts) != phi.arity:
        raise FormulaError("point count does not match formula arity")
    dim = len(target)
    if any(len(q) != dim for q in pts):
        raise FormulaError("inconsistent point dimensions")
    solution = phi._solution
    columns = [integer_row([q[t] for q in pts] + [target[t]]) for t in range(dim)]
    if any(_dot(c, values) for _, values in columns for c in solution.conditions):
        return None
    return {
        v: tuple([Fraction(_dot(nums, values), den * d) for d, values in columns])
        for v, (nums, den) in enumerate(solution.forms)
    }


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


def _json_rational(value) -> Fraction:
    """A rational string, a JSON integer, or a JSON decimal kept as its text
    (see formula_from_json), read exactly."""
    return Fraction(value) if type(value) is int else parse_rational(value)


def _json_index(value) -> int:
    """A JSON integer; a bool, a decimal or a string is refused."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


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
    """Parse formula JSON, checking its size and every variable and input index.

    arity, variables and every index are JSON integers; a relation parameter
    is a rational string or a JSON number, read exactly from its text.
    arity must be at least 1, neither variables nor the relation count may
    exceed MAX_FORMULA_VARIABLES, every variable index (bindings, relations,
    output) must lie in [0, variables) and every input index in [0, arity).
    The structure that formula_to_json writes is not read, since no verdict
    depends on it: like any other unknown key it is ignored, and the parsed
    formula's structure is None.
    """
    try:
        data = json.loads(text, parse_float=str)
        phi = ChainFormula(
            arity=_json_index(data["arity"]),
            num_vars=_json_index(data["variables"]),
            input_bindings=tuple(
                (_json_index(v), _json_index(j)) for v, j in data["inputs"]
            ),
            output_var=_json_index(data["output"]),
            relations=tuple(
                Relation(_json_index(a), _json_index(b), _json_rational(q), _json_index(r))
                for a, b, q, r in data["relations"]
            ),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormulaError(f"invalid formula JSON: {exc}") from exc
    if phi.arity < 1:
        raise FormulaError(f"invalid formula JSON: arity {phi.arity} is below 1")
    for kind, size in (("variables", phi.num_vars), ("relations", len(phi.relations))):
        if size > MAX_FORMULA_VARIABLES:
            raise FormulaError(
                f"invalid formula JSON: {size} {kind}, more than {MAX_FORMULA_VARIABLES}"
            )
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
