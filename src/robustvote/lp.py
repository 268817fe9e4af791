"""Exact rational linear feasibility with evidence.

Everything here is exact integer and Fraction arithmetic, with no
tolerances. A query either comes back feasible with a witness point, or
infeasible with a Farkas-style certificate: nonnegative multipliers on the
rows (sign-free on equalities) whose combination reduces the system to the
contradiction 0 > 0 or 0 >= c with c > 0. Before either is returned it goes
through the matching check in `certificates` (`satisfies` or
`certifies_infeasibility`, both importable from here too), and a failure
raises InternalError.

The solver is a single primal simplex run on the standard equality form
with Bland's anti-cycling pivot rule, which also makes every answer
deterministic for a given input. Every system is first made homogeneous
(Goldman & Tucker 1956): when some right-hand side is nonzero, one more
variable s >= 0 turns a.x (>=, >, =) b into a.x - b.s (>=, >, =) 0, with
one more strict row s > 0, and the witness is x / s. Equalities become two
opposite inequalities, and free variables differences of nonnegative
parts. Strict rows share one slack variable delta, 0 <= delta <= 1, so
a.x > 0 becomes a.x - delta >= 0, and the system is feasible iff the
maximal delta is positive. Each row enters with its own slack column and a
zero right-hand side, so the slack basis is feasible and one run decides.

Infeasibility certificates are read off the dual values of the final,
delta-maximizing basis. Merged over the two halves of each equality, they
are multipliers on the original rows; the s-row and the cap row take no
part in them.

The tableau is fraction-free: sparse integer rows over one common
denominator, the basis determinant, updated by Bareiss pivots whose
divisions are exact. Integer systems enter as integers and rational ones
scaled row by row; Fractions are formed only when a witness, a dual or the
objective value is read. Each answer carries SolveStats (shape, pivots,
widest entry), which take no part in equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .certificates import (
    REL_EQ,
    REL_GE,
    REL_GT,
    SIGN_FREE,
    SIGN_NONNEG,
    certifies_infeasibility,
    failed_column,
    failed_row,
    require,
    satisfies,
)

_RELATIONS = (REL_GE, REL_GT, REL_EQ)
_SIGNS = (SIGN_FREE, SIGN_NONNEG)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rational(value) -> int | Fraction:
    """An int stays an int, so integer systems reach the solver as integers;
    anything else becomes a Fraction."""
    return value if type(value) is int else Fraction(value)


@dataclass(frozen=True)
class LinearRow:
    coeffs: tuple[int | Fraction, ...]
    relation: str
    rhs: int | Fraction

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(map(_rational, self.coeffs)))
        object.__setattr__(self, "rhs", _rational(self.rhs))


@dataclass(frozen=True)
class LinearSystem:
    num_vars: int
    rows: tuple[LinearRow, ...]
    var_signs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("a system needs at least one variable")
        if len(self.var_signs) != self.num_vars:
            raise ValueError("one sign domain is required per variable")
        if any(s not in _SIGNS for s in self.var_signs):
            raise ValueError(f"variable signs must be one of {_SIGNS}")
        for row in self.rows:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("row length does not match the variable count")


@dataclass(frozen=True)
class SolveStats:
    """What the simplex did for one answer: the final tableau's shape, its
    pivots, and the widest integer the tableau held at the end, in bits."""

    rows: int
    columns: int
    pivots: int
    max_bits: int


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility query. Exactly one of witness and
    certificate is set; stats are not part of the answer."""

    feasible: bool
    witness: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None
    stats: SolveStats | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Standard-form simplex


class _Tableau:
    """Fraction-free simplex tableau, Bland's rule throughout.

    Each row holds only its nonzero entries, as ints over one positive
    common denominator `den`, the determinant of the current basis: entry v
    stands for v / den.  The reduced-cost row `cbar` and `zrhs`, minus the
    objective value, are kept on the same scale.  A pivot on entry p turns
    every entry v whose row has f in the pivot column, and whose column
    has w in the pivot row, into (v * p - f * w) / den; that division is
    exact (Edmonds 1967; Bareiss 1968), and p becomes the new denominator,
    with the tableau negated when p < 0.  Rationals are formed only when
    `solution`, `duals` or `value` is read.
    """

    def __init__(self) -> None:
        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.scales: list[int] = []  # lcm of the denominators of each input row
        self.den = 1
        self.ncols = 0
        self.basis: list[int] = []
        self.init_col: list[int] = []  # identity column of each row at start
        self.costs: dict[int, int] = {}
        self.cbar: dict[int, int] = {}
        self.zrhs = 0
        self.pivots = 0

    def add_column(self) -> int:
        self.ncols += 1
        return self.ncols - 1

    def add_row(self, coeffs: dict[int, int | Fraction], b: int, slack: int) -> None:
        """Append an equality row with integer b >= 0 whose slack, a +1 unit
        column among coeffs, starts the basis.  A row with rational entries
        is multiplied by the lcm of their denominators.
        """
        require(b >= 0, "solver: row with a negative right-hand side")
        scale = lcm(*(v.denominator for v in coeffs.values()))
        self.rows.append({j: v.numerator * (scale // v.denominator)
                          for j, v in coeffs.items() if v})
        self.rhs.append(b * scale)
        self.scales.append(scale)
        self.basis.append(slack)
        self.init_col.append(slack)

    def _start(self) -> None:
        """Put the rows over one denominator, once all of them are in.

        Row i was multiplied by scales[i] to make it integer, so the
        starting basis is diag(scales) with determinant prod(scales); over
        that denominator row i stands for itself times prod / scales[i].
        A smaller denominator would break the exact divisions.
        """
        if not self.scales:
            return
        den = prod(self.scales)
        if den != 1:
            for i, scale in enumerate(self.scales):
                lift = den // scale
                if lift != 1:
                    self.rows[i] = {j: v * lift for j, v in self.rows[i].items()}
                    self.rhs[i] *= lift
        self.den = den
        self.scales = []

    def _pivot(self, r: int, e: int) -> None:
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        p = prow[e]
        if p < 0:
            p = -p
            rows[r] = prow = {j: -v for j, v in prow.items()}
            rhs[r] = -rhs[r]
        pitems = prow.items()
        prhs = rhs[r]
        for i, row in enumerate(rows):
            if i != r:
                rows[i], rhs[i] = self._eliminate(row, rhs[i], e, p, pitems, prhs)
        self.cbar, self.zrhs = self._eliminate(self.cbar, self.zrhs, e, p, pitems, prhs)
        self.den = p
        self.basis[r] = e
        self.pivots += 1

    def _eliminate(self, row, b, e, p, pitems, prhs):
        """One row after a pivot on entry p of column e: (v * p - f * w) / den
        on its nonzeros and the pivot row's, divided exactly."""
        den = self.den
        f = row.get(e)
        if not f:
            if p == den:
                return row, b
            return {j: v * p // den for j, v in row.items()}, b * p // den
        new = {j: v * p for j, v in row.items()}
        for j, w in pitems:
            new[j] = new.get(j, 0) - f * w
        return {j: v // den for j, v in new.items() if v}, (b * p - f * prhs) // den

    def run(self, costs: list[int]) -> None:
        """Minimize integer costs from the current, feasible basis."""
        self._start()
        rows, rhs, den, basis = self.rows, self.rhs, self.den, self.basis
        self.costs = {j: c for j, c in enumerate(costs) if c}
        cbar = {j: c * den for j, c in self.costs.items()}
        zrhs = 0
        for r, col in enumerate(basis):
            cb = self.costs.get(col)
            if cb:
                for j, v in rows[r].items():
                    cbar[j] = cbar.get(j, 0) - cb * v
                zrhs -= cb * rhs[r]
        self.cbar = {j: v for j, v in cbar.items() if v}
        self.zrhs = zrhs
        while True:
            enter = min(
                (j for j, v in self.cbar.items() if v < 0), default=-1
            )
            if enter < 0:
                return
            # Bland's ratio test, rhs[r] / a compared by cross-multiplying.
            leave = -1
            for r, row in enumerate(rows):
                a = row.get(enter, 0)
                if a > 0:
                    if leave >= 0:
                        ratio, best = rhs[r] * best_a, rhs[leave] * a
                        if ratio > best or (ratio == best and basis[r] > basis[leave]):
                            continue
                    leave, best_a = r, a
            require(leave >= 0, "solver: unbounded program")
            self._pivot(leave, enter)

    @property
    def value(self) -> Fraction:
        return Fraction(-self.zrhs, self.den)

    def solution(self) -> dict[int, Fraction]:
        self._start()
        return {col: Fraction(self.rhs[r], self.den) for r, col in enumerate(self.basis)}

    def duals(self) -> list[Fraction]:
        """Row duals of the last run: costs[init] - cbar[init] per row."""
        den, costs, cbar = self.den, self.costs, self.cbar
        return [
            Fraction(costs.get(col, 0) * den - cbar.get(col, 0), den)
            for col in self.init_col
        ]

    def stats(self) -> SolveStats:
        entries = (v for row in self.rows for v in row.values())
        widest = max(map(int.bit_length, itertools.chain(
            entries, self.rhs, self.cbar.values(), (self.zrhs, self.den))))
        return SolveStats(len(self.rows), self.ncols, self.pivots, widest)


class _Encoder:
    """Builds the standard form of the lifted LinearSystem and maps answers
    back.  Every lifted row reads g.z (- delta on strict rows) >= 0 and
    enters negated, -g.z (+ delta) + slack = 0, so the slack basis is
    feasible; only the cap delta <= 1 has a nonzero right-hand side.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        self.tab = tab = _Tableau()
        self.part_cols: list[tuple[int, int | None]] = []
        for sign in system.var_signs:
            pos = tab.add_column()
            neg = tab.add_column() if sign == SIGN_FREE else None
            self.part_cols.append((pos, neg))
        self.lift = tab.add_column() if any(row.rhs for row in system.rows) else None
        strict = self.lift is not None or any(row.relation == REL_GT for row in system.rows)
        self.delta = tab.add_column() if strict else None
        # (original row index, sign taking the standard row's dual onto it)
        self.row_sign: list[tuple[int, int]] = []
        for index, row in enumerate(system.rows):
            self._add_row(self._coeffs(row, -1), row.relation == REL_GT, index, -1)
            if row.relation == REL_EQ:
                self._add_row(self._coeffs(row, 1), False, index, 1)
        if self.lift is not None:
            self._add_row({self.lift: -1}, True)  # s > 0
        if strict:
            self._add_row({}, True, b=1)  # the cap delta <= 1

    def _coeffs(self, row: LinearRow, sign: int) -> dict[int, int | Fraction]:
        """sign times the lifted row's coefficients over the columns."""
        coeffs: dict[int, int | Fraction] = {}
        for (pos, neg), c in zip(self.part_cols, row.coeffs):
            if c:
                coeffs[pos] = sign * c
                if neg is not None:
                    coeffs[neg] = -sign * c
        if row.rhs:
            coeffs[self.lift] = -sign * row.rhs
        return coeffs

    def _add_row(self, coeffs: dict[int, int | Fraction], strict: bool,
                 index: int = -1, sign: int = 0, b: int = 0) -> None:
        """coeffs (+ delta) + slack = b.  A row with sign 0, the s-row or
        the cap, takes no part in the certificate."""
        if strict:
            coeffs[self.delta] = 1
        slack = self.tab.add_column()
        coeffs[slack] = 1
        self.tab.add_row(coeffs, b, slack)
        self.row_sign.append((index, sign))

    def witness(self) -> tuple[Fraction, ...]:
        sol = self.tab.solution()
        values = []
        for pos, neg in self.part_cols:
            v = sol.get(pos, _ZERO)
            if neg is not None:
                v -= sol.get(neg, _ZERO)
            values.append(v)
        if self.lift is None:
            return tuple(values)
        return tuple(v / sol[self.lift] for v in values)

    def certificate(self) -> tuple[Fraction, ...]:
        """Minus the dual of each negated row, merged over the two halves of
        an equality.  The s-row and the cap get no weight: at delta = 0 the
        cap's dual vanishes, and s > 0 leaves the combined right-hand side
        at least the s-row's dual, so the rest is a certificate alone."""
        mults = [_ZERO] * len(self.system.rows)
        for dual, (index, sign) in zip(self.tab.duals(), self.row_sign):
            if sign:
                mults[index] += sign * dual
        return tuple(mults)


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide the system exactly, with a re-verified witness or certificate.

    One simplex run from the slack basis of the lifted cone maximizes the
    shared delta, capped at 1.  Any strictly feasible point has a positive
    least slack, and the cap keeps the program bounded without changing
    the verdict: feasible iff the maximal delta exceeds zero.  A system
    with no strict row after the lift is feasible at zero without a run.
    """
    enc = _Encoder(system)
    tab = enc.tab
    if enc.delta is not None:
        costs = [0] * tab.ncols
        costs[enc.delta] = -1
        tab.run(costs)
        if tab.value == 0:
            cert = enc.certificate()
            require(certifies_infeasibility(system, cert),
                    "solver: invalid infeasibility certificate")
            return FeasibilityResult(False, None, cert, tab.stats())
    point = enc.witness()
    require(satisfies(system, point), "solver: witness fails substitution")
    return FeasibilityResult(True, point, None, tab.stats())


# ---------------------------------------------------------------------------
# Theorems of the alternative


@dataclass(frozen=True)
class AlternativeResult:
    """Exactly one of the two mutually exclusive sides.

    weights: the combining vector over matrix rows (normalized to sum 1).
    mixture: the opposing vector over matrix columns (normalized to sum 1).
    """

    weights: tuple[Fraction, ...] | None
    mixture: tuple[Fraction, ...] | None


def _as_matrix(matrix: Sequence[Sequence[Fraction]]) -> list[list[int | Fraction]]:
    rows = [list(map(_rational, row)) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("the matrix must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must have equal length")
    return rows


def _normalized(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    total = sum(vec, _ZERO)
    require(total > 0, "solver: vector has no mass to normalize")
    return tuple(v / total for v in vec)


def _solve_cone(rows, relations) -> FeasibilityResult:
    """Solve row . z (relation) 0 for each row, over z >= 0."""
    width = len(rows[0])
    return solve_feasibility(LinearSystem(
        width, tuple(LinearRow(tuple(row), rel, 0) for row, rel in zip(rows, relations)),
        (SIGN_NONNEG,) * width))


def alternative_strict(matrix: Sequence[Sequence[Fraction]]) -> AlternativeResult:
    """Either w >= 0 with w^T L strictly positive in every column, or a
    nonnegative nonzero column mixture lam with L lam <= 0 componentwise.
    """
    rows = _as_matrix(matrix)
    # solve_feasibility has checked the witness, and the Farkas multipliers
    # of this system are a mixture with L lam <= 0; scaling keeps both.
    result = _solve_cone(list(zip(*rows)), [REL_GT] * len(rows[0]))
    if result.feasible:
        return AlternativeResult(weights=_normalized(result.witness), mixture=None)
    return AlternativeResult(weights=None, mixture=_normalized(result.certificate))


def alternative_weak(matrix: Sequence[Sequence[Fraction]]) -> AlternativeResult:
    """Either w >= 0, sum 1, with w^T L >= 0 in every column, or a
    nonnegative column mixture lam, sum 1, with L lam < 0 in every
    component.  The mixture is the solver's witness, normalized; it need
    not be strictly positive.
    """
    rows = _as_matrix(matrix)
    # solve_feasibility has checked the witness, and the Farkas multipliers
    # of this system are weights with w^T L >= 0; scaling keeps both.
    result = _solve_cone([[-a for a in row] for row in rows], [REL_GT] * len(rows))
    if result.feasible:
        return AlternativeResult(weights=None, mixture=_normalized(result.witness))
    return AlternativeResult(weights=_normalized(result.certificate), mixture=None)


def alternative_positive(matrix: Sequence[Sequence[Fraction]]) -> AlternativeResult:
    """Either w > 0, sum 1, with w^T L >= 0 in every column, or a
    nonnegative column mixture lam, sum 1, with L lam <= 0 in every
    component and below zero in total (Stiemke 1915).

    One solve of -L lam >= 0, -1^T L lam > 0: a witness is the mixture;
    otherwise the Farkas multipliers, u on the n rows and v > 0 on the
    total row, combine to (u + v 1)^T L >= 0, and w = u + v 1 > 0.
    """
    rows = _as_matrix(matrix)
    negated = [[-a for a in row] for row in rows]
    result = _solve_cone(negated + [list(map(sum, zip(*negated)))],
                         [REL_GE] * len(rows) + [REL_GT])
    if result.feasible:
        return AlternativeResult(weights=None, mixture=_normalized(result.witness))
    *u, v = result.certificate
    weights = _normalized([ui + v for ui in u])
    require(failed_column(rows, weights, strict=False) is None,
            "solver: positive weights fail a column")
    return AlternativeResult(weights=weights, mixture=None)


# ---------------------------------------------------------------------------
# Matrix games


@dataclass(frozen=True)
class GameSolution:
    """Exact value and optimal mixed strategies of a zero-sum matrix game.

    The row player picks row_strategy (sum 1, nonnegative) to maximize, the
    column player picks col_strategy to minimize, and
    row_strategy^T A >= value >= A col_strategy holds componentwise.
    """

    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]
    stats: SolveStats | None = field(default=None, compare=False)


def matrix_game(matrix: Sequence[Sequence[Fraction]]) -> GameSolution:
    """Solve max_x min_y x^T A y over mixed strategies, exactly.

    Implemented as the classical reduction: shift A to strictly positive
    entries, solve max sum(z) subject to (A + k) z <= 1, z >= 0 (the slack
    basis is immediately feasible), and scale the primal and dual optima
    back into strategies. The shift k cancels out of the reported value.
    """
    rows = _as_matrix(matrix)
    n, m = len(rows), len(rows[0])
    low = min(min(row) for row in rows)
    k = 1 - low if low < 1 else 0
    tab = _Tableau()
    z_cols = [tab.add_column() for _ in range(m)]
    for i in range(n):
        slack = tab.add_column()
        coeffs = {z_cols[j]: rows[i][j] + k for j in range(m)}
        coeffs[slack] = 1
        tab.add_row(coeffs, 1, slack)
    costs = [0] * tab.ncols
    for col in z_cols:
        costs[col] = -1
    tab.run(costs)
    sol = tab.solution()
    z = [sol.get(col, _ZERO) for col in z_cols]
    total = sum(z, _ZERO)
    require(total > 0, "solver: game normalization degenerated")
    u = [-d for d in tab.duals()]  # dual multipliers of the <= rows, nonnegative
    require(sum(u, _ZERO) == total, "solver: game duality gap")
    value = _ONE / total - k
    col_strategy = tuple(v / total for v in z)
    row_strategy = tuple(v / total for v in u)
    require(failed_column(rows, row_strategy, value, strict=False) is None,
            "solver: row strategy below value")
    require(failed_row(rows, col_strategy, value) is None,
            "solver: column strategy above value")
    return GameSolution(value, row_strategy, col_strategy, tab.stats())
