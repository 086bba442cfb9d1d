"""Exact linear algebra over the rationals and integers.

Everything here is bit-exact: reduced row echelon form, dense affine
system solving (a reference for the tests), Smith normal form with
unimodular transforms, and exact linear feasibility with witnesses and
Farkas certificates.  Feasibility and optimization share one two-phase
simplex in standard form whose Bland pivoting rule cannot cycle; an
infeasible system gets its certificate from the phase-1 duals.  The relative
interior point and the implicit equalities come from rounds of one more LP
on the phase-1 tableau, maximizing a common lower bound tau on the slacks
that are not known to be tight (relative_interior_point).  The simplex
reads one int standard form (_StandardForm): kept rows scaled to ints plus
sign bounds.  _standard_form converts LinearConstraints into it at the
public boundary, and hull builds its membership system in it directly.
Elimination is in Python ints as well: the simplex pivots on int rows (see
_Simplex), and rref, rank and the pivot readings share one fraction-free
Gauss-Jordan kernel (_gauss_jordan), so Fractions appear only in returned
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .scalar import integer_row

QVector = list[Fraction]
QMatrix = list[list[Fraction]]


class LinalgError(ValueError):
    pass


class InfeasibleSystemError(LinalgError):
    """Raised when an operation requires a feasible constraint system.

    `certificate` holds the Farkas multipliers of the system, in the form of
    LPResult.certificate, when the raiser found them (relative_interior_point
    always does), and None otherwise.
    """

    certificate: Optional[tuple[Fraction, ...]] = None


def _frac_matrix(matrix: Sequence[Sequence]) -> QMatrix:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise LinalgError("ragged matrix")
    return rows


def _frac_vector(vec: Sequence) -> QVector:
    return [Fraction(x) for x in vec]


def _integer_rows(matrix: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators; ints and Fractions are read as they are."""
    rows = [
        list(integer_row([x if type(x) in (int, Fraction) else Fraction(x) for x in row])[1])
        for row in matrix
    ]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise LinalgError("ragged matrix")
    return rows


def _clear_column(rows: list[list[int]], r: int, col: int) -> None:
    """Zero column col of every int row but row r, in place.

    With p = rows[r][col], each row R_i with a nonzero entry f there becomes
    p R_i - f R_r divided by its gcd; so it stays a positive multiple of
    R_i - (f / p) R_r when p > 0.
    """
    row = rows[r]
    p = row[col]
    for i, other in enumerate(rows):
        f = other[col]
        if f != 0 and i != r:
            new = [p * x - f * y for x, y in zip(other, row)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def _gauss_jordan(rows: list[list[int]]) -> list[int]:
    """Reduce int rows in place to a multiple of their RREF; return the pivot columns.

    Row k < rank ends as p_k times RREF row k, with p_k > 0 its entry at
    pivot k; the other rows end as zeros.  Each step clears the pivot's
    column (_clear_column, as _Simplex._pivot does), so every row stays a
    nonzero multiple of the row the Fraction elimination would hold, and
    the pivots are the same.
    """
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    top = 0
    for col in range(ncols):
        found = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if found is None:
            continue
        row = rows[found] if rows[found][col] > 0 else [-x for x in rows[found]]
        rows[found], rows[top] = rows[top], row
        _clear_column(rows, top, col)
        pivots.append(col)
        top += 1
        if top == len(rows):
            break
    return pivots


def _pivots(matrix: Sequence[Sequence]) -> list[int]:
    """The pivot columns of the RREF of matrix, without building it."""
    return _gauss_jordan(_integer_rows(matrix))


def rref(matrix: Sequence[Sequence]) -> tuple[QMatrix, list[int], int]:
    """Reduced row echelon form; returns (R, pivot columns, rank)."""
    rows = _integer_rows(matrix)
    pivots = _gauss_jordan(rows)
    red = [[Fraction(x, row[col]) for x in row] for row, col in zip(rows, pivots)]
    red += [[Fraction(0)] * len(row) for row in rows[len(pivots):]]
    return red, pivots, len(pivots)


def rank(matrix: Sequence[Sequence]) -> int:
    return len(_pivots(matrix))


def solve_affine(
    matrix: Sequence[Sequence], rhs: Sequence
) -> Optional[tuple[QVector, list[QVector]]]:
    """Full exact solution set of M x = b, by dense Fraction elimination.

    This is the dense reference: no library code calls it.  The tests check
    the integer kernels against it: for chain formulas, the sparse
    fraction-free rows of formula._eliminate and _back_substitute, and for
    ring hulls, the Smith normal form walk of hull.membership_report_T.

    Returns (particular solution, kernel basis), or None when the system is
    inconsistent.  Free variables are set to zero in the particular solution.
    There is one kernel vector per free (non-pivot) column, in column order:
    it is 1 at its own free column, which is its last nonzero entry, and 0
    at every other free column.  So a kernel element's coordinates at the
    free columns are its coefficients in this basis.
    """
    m = _frac_matrix(matrix)
    b = _frac_vector(rhs)
    if len(m) != len(b):
        raise LinalgError("rhs length does not match row count")
    ncols = len(m[0]) if m else 0
    augmented = [row + [bv] for row, bv in zip(m, b)]
    red, pivots, _ = rref(augmented)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = red[r][ncols]
    free_cols = [c for c in range(ncols) if c not in pivots]
    kernel: list[QVector] = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -red[r][f]
        kernel.append(vec)
    return particular, kernel


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U @ M @ V == D, U and V unimodular, and D diagonal
    with nonnegative entries satisfying d1 | d2 | ...
    """
    a = [[int(x) for x in row] for row in matrix]
    for row, orig in zip(a, matrix):
        for x, y in zip(row, orig):
            if x != y:
                raise LinalgError("Smith normal form needs integer entries")
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    while True:
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(t, nrows)
            for j in range(t, ncols)
            if a[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        # Reduce the pivot's column and row once.  A nonzero remainder is
        # smaller than the pivot, so re-picking the smallest entry shrinks
        # the pivot strictly.
        for r in range(t + 1, nrows):
            if a[r][t] != 0:
                add_row(r, t, -(a[r][t] // a[t][t]))
        for c in range(t + 1, ncols):
            if a[t][c] != 0:
                add_col(c, t, -(a[t][c] // a[t][t]))
        if any(a[r][t] for r in range(t + 1, nrows)) or any(
            a[t][c] for c in range(t + 1, ncols)
        ):
            continue
        offender = next(
            (
                (r, c)
                for r in range(t + 1, nrows)
                for c in range(t + 1, ncols)
                if a[r][c] % a[t][t] != 0
            ),
            None,
        )
        if offender is not None:
            add_row(t, offender[0], 1)
            continue
        t += 1
    for i in range(min(nrows, ncols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


# ---------------------------------------------------------------------------
# Exact linear feasibility with witnesses and certificates
# ---------------------------------------------------------------------------


RELATIONS = ("<=", ">=", "==")


def _exact(value) -> Fraction:
    """`value` as a Fraction; one that already is a Fraction is kept as it is."""
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class LinearConstraint:
    """An exact constraint sum(coeffs * x) rel rhs with rel in {<=, >=, ==}."""

    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction

    def __init__(self, coeffs: Sequence, rel: str, rhs):
        if rel not in RELATIONS:
            raise LinalgError(f"unknown relation {rel!r}")
        object.__setattr__(self, "coeffs", tuple([_exact(c) for c in coeffs]))
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "rhs", _exact(rhs))

    def oriented(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """The constraint as (a, b) meaning a.x <= b; >= rows are negated."""
        if self.rel == ">=":
            return tuple(-c for c in self.coeffs), -self.rhs
        return self.coeffs, self.rhs

    def satisfied_by(self, point: Sequence) -> bool:
        if len(point) != len(self.coeffs):
            raise LinalgError("constraint arity mismatch")
        value = sum((c * Fraction(x) for c, x in zip(self.coeffs, point)), Fraction(0))
        if self.rel == "<=":
            return value <= self.rhs
        if self.rel == ">=":
            return value >= self.rhs
        return value == self.rhs


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact feasibility test.

    On success `witness` satisfies every constraint exactly.  On failure
    `certificate` holds one multiplier per constraint: multipliers are
    nonnegative for inequalities (applied to the <= orientation, so a >= row
    is first negated) and unrestricted for equalities, and combining the
    oriented rows with these multipliers yields 0 <= negative.
    """

    feasible: bool
    witness: Optional[tuple[Fraction, ...]]
    certificate: Optional[tuple[Fraction, ...]]


def verify_farkas_certificate(
    constraints: Sequence[LinearConstraint], certificate: Sequence
) -> bool:
    """Check that the multipliers re-derive an exact contradiction 0 <= c < 0."""
    cert = _frac_vector(certificate)
    num_vars = len(constraints[0].coeffs) if constraints else 0
    if any(len(con.coeffs) != num_vars for con in constraints):
        raise LinalgError("constraint arity mismatch")
    if len(cert) != len(constraints):
        return False
    combo = [Fraction(0)] * num_vars
    total = Fraction(0)
    for lam, con in zip(cert, constraints):
        if con.rel != "==" and lam < 0:
            return False
        a, b = con.oriented()
        combo = [acc + lam * c for acc, c in zip(combo, a)]
        total += lam * b
    return all(c == 0 for c in combo) and total < 0


# -- Bland-rule simplex in standard form -------------------------------------


class _StandardForm(NamedTuple):
    """A constraint system as _Simplex reads it, in ints.

    `rows` holds the kept rows (index, scale, a, b, inequality) in index
    order: a.x <= b, or a.x == b for an equality, is constraint `index`
    oriented to <= and multiplied by the positive int `scale`.  `bounds` maps
    a variable j to (index, a_j) for the sign bound a_j x_j <= 0 that is
    constraint `index`; a_j is an int or a Fraction.  `num_constraints`
    counts both, so a certificate has one multiplier per constraint index.
    """

    num_vars: int
    num_constraints: int
    rows: list[tuple[int, int, list[int], int, bool]]
    bounds: dict[int, tuple[int, Fraction]]


def _standard_form(constraints, num_vars: Optional[int] = None) -> _StandardForm:
    """The standard form of a LinearConstraint sequence; a _StandardForm is kept as it is.

    Each constraint is oriented to <=.  The first inequality per variable
    whose oriented form is a_j x_j <= 0 (for instance x_j >= 0) becomes that
    variable's sign bound, a_j being the oriented coefficient itself; every
    other constraint is kept as its oriented row scaled by the lcm of its
    denominators.
    """
    if isinstance(constraints, _StandardForm):
        return constraints
    constraints = list(constraints)
    if num_vars is None:
        if not constraints:
            raise LinalgError("num_vars required for an empty system")
        num_vars = len(constraints[0].coeffs)
    kept, bounds = [], {}
    for i, con in enumerate(constraints):
        if len(con.coeffs) != num_vars:
            raise LinalgError("constraint arity mismatch")
        a, b = con.oriented()
        inequality = con.rel != "=="
        if inequality and b == 0:
            support = [j for j, c in enumerate(a) if c]
            if len(support) == 1 and support[0] not in bounds:
                bounds[support[0]] = (i, a[support[0]])
                continue
        scale, (*ints, b) = integer_row(a + (b,))
        kept.append((i, scale, ints, b, inequality))
    return _StandardForm(num_vars, len(constraints), kept, bounds)


class _Simplex:
    """Exact two-phase simplex on A y = b, y >= 0, with Bland's rule.

    It is built from a _StandardForm, which turns the general system into
    standard form without doubling any row: a variable with a sign bound
    a_j x_j <= 0 gets one column of that sign, every other variable a + and
    a - column, and each kept inequality a slack column.  Rows are negated
    where needed so that b >= 0, and one artificial column per row forms
    the starting basis.  Column layout: structural, slacks, artificials,
    right-hand side.  Entries are ints: a row R, divided by its gcd, stands
    for R / R[basic], its basic entry being its positive scale, and the
    objective is the int row `obj` over the positive denominator `den`.
    After phase 1, lp_extremum runs phase 2 on the tableau as it is;
    _relative_interior runs its rounds on copies of it, each widened by a
    tau column and a cap row tau + u = 1.
    """

    def __init__(self, form: _StandardForm):
        self.num_vars = form.num_vars
        self.num_constraints = form.num_constraints
        self.bounds = form.bounds
        self.rows = form.rows
        self.columns: list[tuple[int, int]] = []  # (j, sign): x_j = sum sign * y
        for j in range(self.num_vars):
            if j in self.bounds:
                self.columns.append((j, -1 if self.bounds[j][1] > 0 else 1))
            else:
                self.columns += [(j, 1), (j, -1)]
        slack = len(self.columns)
        self.art_at = slack + sum(1 for row in self.rows if row[4])
        self.ncols = self.art_at + len(self.rows)
        self.sigma = []
        self.tableau = []
        for r, (_, scale, a, b, inequality) in enumerate(self.rows):
            sigma = -1 if b < 0 else 1
            row = [sigma * s * a[j] for j, s in self.columns]
            row += [0] * (self.ncols - len(self.columns)) + [sigma * b]
            if inequality:
                row[slack] = sigma * scale
                slack += 1
            row[self.art_at + r] = scale
            self.sigma.append(sigma)
            self.tableau.append(row)
        self.basis = [self.art_at + r for r in range(len(self.rows))]

    def _pivot(self, r, c):
        """Make column c basic in row r, whose entry there must be positive."""
        _clear_column(self.tableau, r, c)
        self.basis[r] = c

    def _price_out(self, row, c):
        """Zero the objective's entry in column c, row's basic column."""
        f = self.obj[c]
        if f != 0:
            p = row[c]
            obj = [p * x - f * y for x, y in zip(self.obj, row)]
            g = gcd(p * self.den, *obj)
            self.obj, self.den = [x // g for x in obj], p * self.den // g

    def _minimize(self, costs, allowed_cols) -> str:
        """Minimize costs . y from the current basis by Bland's rule."""
        self.den, self.obj = integer_row(costs)
        for row, b in zip(self.tableau, self.basis):
            self._price_out(row, b)
        while True:
            entering = next((j for j in allowed_cols if self.obj[j] < 0), None)
            if entering is None:
                return "optimal"
            best = None
            for i, row in enumerate(self.tableau):
                coef = row[entering]
                if coef > 0 and (
                    best is None
                    # the ratio row[-1] / coef, cross-multiplied; ties by basis
                    or (row[-1] * self.tableau[best][entering], self.basis[i])
                    < (self.tableau[best][-1] * coef, self.basis[best])
                ):
                    best = i
            if best is None:
                return "unbounded"
            self._pivot(best, entering)
            self._price_out(self.tableau[best], entering)

    def phase1(self) -> Fraction:
        """Minimize the sum of the artificials and return that minimum.

        The objective is bounded below by 0, so Bland's rule ends optimal.
        """
        self._minimize([0] * self.art_at + [1] * len(self.rows) + [0], range(self.ncols))
        return Fraction(-self.obj[-1], self.den)

    def certificate(self) -> tuple[Fraction, ...]:
        """Farkas multipliers over the original constraints, after phase 1.

        The dual of artificial r is y_r = 1 - its reduced cost.  Undoing the
        row signs, u = sigma * y satisfies u.A_k <= 0 on every column and
        u.b > 0.  Kept row i takes -u_i (>= 0 on inequalities, by the slack
        columns) and the bound row a_j x_j <= 0 takes sum_i u_i a_ij / a_j,
        which cancels x_j and is >= 0 by the sign of x_j's column.  That
        column's entries are sign * sigma_i * a_ij, so the sum is -sign times
        its reduced cost.
        """
        cert = [Fraction(0)] * self.num_constraints
        for r, (i, *_) in enumerate(self.rows):
            cert[i] = Fraction(self.sigma[r] * (self.obj[self.art_at + r] - self.den), self.den)
        for k, (j, sign) in enumerate(self.columns):
            if j in self.bounds:
                i, a_j = self.bounds[j]
                cert[i] = Fraction(-sign * self.obj[k], self.den * a_j)
        return tuple(cert)

    def drop_artificials(self):
        """Pivot the zero-level artificials left by phase 1 out of the basis.

        Such a row's right-hand side is 0, so negating it keeps it valid.  A
        row with no other nonzero entry is redundant: phase 2 enters only
        non-artificial columns, so it never pivots on that row.
        """
        for r, b in enumerate(self.basis):
            if b < self.art_at:
                continue
            col = next((j for j in range(self.art_at) if self.tableau[r][j] != 0), None)
            if col is not None:
                if self.tableau[r][col] < 0:
                    self.tableau[r] = [-x for x in self.tableau[r]]
                self._pivot(r, col)

    def phase2(self, objective) -> str:
        """Minimize objective . x over the feasible set left by phase 1."""
        costs = [s * objective[j] for j, s in self.columns]
        return self._minimize(costs + [0] * (self.ncols + 1 - len(costs)), range(self.art_at))

    def point(self) -> tuple[list[int], int]:
        """The basic solution x as (numerators, den), den > 0 the lcm of
        the basic entries of the rows whose basic column is structural."""
        basic = [(row, b) for row, b in zip(self.tableau, self.basis) if b < len(self.columns)]
        den = lcm(*(row[b] for row, b in basic))
        x = [0] * self.num_vars
        for row, b in basic:
            j, sign = self.columns[b]
            x[j] += sign * row[-1] * (den // row[b])
        return x, den

    def witness(self) -> tuple[Fraction, ...]:
        x, den = self.point()
        return tuple(Fraction(n, den) for n in x)


def lp_feasible(
    constraints: Sequence[LinearConstraint], num_vars: Optional[int] = None
) -> LPResult:
    """Exact feasibility of a finite rational constraint system.

    Feasible systems yield an exact rational witness; infeasible ones yield a
    Farkas certificate checkable by verify_farkas_certificate.  The system
    may also be given as a _StandardForm (hull builds its membership
    system so); num_vars is then ignored.

    The witness is the basic solution at which phase 1 stops.  Its nonzero
    variables have basic columns, so their columns are linearly independent
    in the rows that are not sign bounds: for equalities plus x >= 0, in the
    equality rows.  hull.caratheodory relies on this.
    """
    sx = _Simplex(_standard_form(constraints, num_vars))
    if sx.phase1() > 0:
        return LPResult(False, None, sx.certificate())
    return LPResult(True, sx.witness(), None)


def lp_extremum(
    constraints: Sequence[LinearConstraint],
    objective: Sequence,
    maximize: bool,
) -> tuple[str, Optional[Fraction], Optional[tuple[Fraction, ...]]]:
    """Exact optimum of a linear objective: (status, value, witness).

    Status is one of "infeasible", "unbounded", "optimal"; witness attains
    the optimum exactly when status is "optimal".
    """
    objective = _frac_vector(objective)
    sx = _Simplex(_standard_form(constraints, len(objective)))
    if sx.phase1() > 0:
        return "infeasible", None, None
    sx.drop_artificials()
    if sx.phase2([-c if maximize else c for c in objective]) == "unbounded":
        return "unbounded", None, None
    witness = sx.witness()
    value = sum((c * x for c, x in zip(objective, witness)), Fraction(0))
    return "optimal", value, witness


# -- Implicit equalities and relative interior -------------------------------


def _slack(con: LinearConstraint, point: Sequence[Fraction]) -> Fraction:
    """b - a.x for the constraint oriented as a.x <= b."""
    a, b = con.oriented()
    return b - sum((c * x for c, x in zip(a, point)), Fraction(0))


def relative_interior_point(constraints: Sequence[LinearConstraint]) -> tuple[Fraction, ...]:
    """A rational point strict on every inequality that is not an implicit equality.

    The system, a LinearConstraint sequence or a _StandardForm, gets one
    tableau and one phase 1.  An infeasible system raises
    InfeasibleSystemError carrying that phase 1's Farkas certificate; one
    with no inequality returns the phase-1 witness, as lp_feasible does.
    Otherwise the implicit equalities are found by rounds of one LP (after
    Freund, Roundy & Todd 1985), each from a copy of the phase-1 basis.  K
    starts as every inequality.  A round writes the slack of each
    inequality in K as tau + s' with s' >= 0 and maximizes tau subject to
    tau <= 1.  If tau > 0, its optimum is strict on all of K, and the
    inequalities outside K are tight everywhere, so it is returned.  If
    tau = 0, the optimal reduced costs r >= 0 come from duals w with
    w.b = 0, so r.y = 0 at every feasible y: each slack in K with r > 0 is
    zero on the whole feasible set and leaves K.  tau's reduced cost forces
    the r on K to sum to at least 1, so every such round removes at least
    one implicit equality, and there are at most (implicit equalities) + 1
    rounds.  When K runs empty, the round's optimum is returned.  The point
    is found in ints (_relative_interior) and read as Fractions once.
    """
    x, den = _relative_interior(_standard_form(constraints))
    return tuple(Fraction(n, den) for n in x)


def _relative_interior(form: _StandardForm) -> tuple[list[int], int]:
    """relative_interior_point of form as (numerators, den), den > 0.

    A round appends two columns before the right-hand side: tau, the sum of
    the tableau columns of K's slacks, and u, the slack of the cap row
    tau + u = 1, which is basic in it.  A sign-bounded variable's column is
    its inequality's slack, and a kept inequality has its own slack column.
    A positive tau, read off its basic row, is added to the basic point on
    each sign-bounded variable in K, times its column's sign.
    """
    sx = _Simplex(form)
    if sx.phase1() > 0:
        error = InfeasibleSystemError("constraint system is infeasible")
        error.certificate = sx.certificate()
        raise error
    structural = len(sx.columns)
    slacks = [k for k, (j, _) in enumerate(sx.columns) if j in form.bounds]
    slacks += range(structural, sx.art_at)
    sx.drop_artificials()  # pivots at level 0, so the basic point stays
    tableau, basis, tau = sx.tableau, sx.basis, sx.ncols
    while slacks:
        sx.tableau = [row[:-1] + [sum(row[k] for k in slacks), 0, row[-1]] for row in tableau]
        sx.tableau.append([0] * tau + [1, 1, 1])
        sx.basis = basis + [tau + 1]
        sx._minimize([0] * tau + [-1, 0, 0], [*range(sx.art_at), tau, tau + 1])
        if sx.obj[-1] > 0:  # the optimum tau is obj[-1] / den
            x, den = sx.point()
            row = sx.tableau[sx.basis.index(tau)]
            scale = lcm(den, row[tau])
            x = [n * (scale // den) for n in x]
            for k in slacks:
                if k < structural:
                    j, sign = sx.columns[k]
                    x[j] += sign * row[-1] * (scale // row[tau])
            return x, scale
        slacks = [k for k in slacks if sx.obj[k] <= 0]
    return sx.point()


def implicit_equalities(constraints: Sequence[LinearConstraint]) -> list[int]:
    """Indices of the inequalities that hold with equality on every feasible point.

    These are exactly the inequalities tight at a relative interior point.
    """
    constraints = list(constraints)
    point = relative_interior_point(constraints)
    return [
        i
        for i, con in enumerate(constraints)
        if con.rel != "==" and _slack(con, point) == 0
    ]
