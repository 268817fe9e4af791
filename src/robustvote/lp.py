"""Exact rational linear feasibility with evidence.

Everything here is exact integer and Fraction arithmetic, with no
tolerances. A query either comes back feasible with a witness point, or
infeasible with a Farkas-style certificate: nonnegative multipliers on the
rows (sign-free on equalities) whose combination reduces the system to the
contradiction 0 > 0 or 0 >= c with c > 0. Before either is returned it goes
through the matching check in `certificates` (`satisfies` or
`certifies_infeasibility`, both importable from here too), and a failure
raises InternalError.

The solver is a two-phase primal simplex on the standard equality form
with Bland's anti-cycling pivot rule, which also makes every answer
deterministic for a given input. Strict inequalities never enter the
simplex directly: each strict row a.x > b becomes a.x - delta >= b with
one shared variable delta, 0 <= delta <= 1, and the system is feasible iff
the maximal delta is positive. Phase one runs only for rows whose slack
cannot start the basis (equalities and rows with a positive right-hand
side), so a homogeneous inequality system starts feasible at delta = 0.
Free variables are split into differences of nonnegative parts first.

Infeasibility certificates are read off the dual values of the final
simplex basis: the phase-one basis when the weakened system is already
infeasible, the delta-maximizing basis when the maximum is 0. The cap row
takes no part in the certificate.

The tableau is fraction-free: sparse integer rows over one common
denominator, the basis determinant, updated by Bareiss pivots whose
divisions are exact. Integer systems enter as integers and rational ones
scaled row by row; Fractions are formed only when a witness, a dual or the
objective value is read. Each answer carries SolveStats (shape, pivots per
phase, widest entry), which take no part in equality.
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
    """What the simplex did for one answer: the final tableau's shape, the
    pivots before and after a feasible basis was reached, and the widest
    integer the tableau held at the end, in bits."""

    rows: int
    columns: int
    phase1_pivots: int
    phase2_pivots: int
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
        self.artificials: set[int] = set()
        self.costs: dict[int, int] = {}
        self.cbar: dict[int, int] = {}
        self.zrhs = 0
        self.phase = 0  # 0 while reaching a feasible basis, then 1
        self.pivots = [0, 0]

    def add_column(self) -> int:
        self.ncols += 1
        return self.ncols - 1

    def add_row(self, coeffs: dict[int, int | Fraction], b: int | Fraction,
                basis_ready_col: int | None) -> None:
        """Append an equality row with b >= 0; give it an identity column.

        basis_ready_col names an existing +1 unit column for this row (a
        slack); if None, a fresh artificial column is created.  A row with
        rational entries is multiplied by the lcm of their denominators.
        """
        require(b >= 0, "solver: row with a negative right-hand side")
        scale = lcm(b.denominator, *(v.denominator for v in coeffs.values()))
        row = {j: v.numerator * (scale // v.denominator) for j, v in coeffs.items() if v}
        b = b.numerator * (scale // b.denominator)
        if basis_ready_col is None:
            basis_ready_col = self.add_column()
            row[basis_ready_col] = scale
            self.artificials.add(basis_ready_col)
        self.rows.append(row)
        self.rhs.append(b)
        self.scales.append(scale)
        self.basis.append(basis_ready_col)
        self.init_col.append(basis_ready_col)

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
        self.pivots[self.phase] += 1

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

    def run(self, costs: list[int], barred: set[int]) -> None:
        """Minimize integer costs over the current basis."""
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
                (j for j, v in self.cbar.items() if v < 0 and j not in barred), default=-1
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

    def drive_out_artificials(self) -> None:
        """Degenerate-pivot basic artificials onto real columns where possible.

        A row whose real entries are all zero is redundant; its artificial
        stays basic at level zero and never moves again (every entering
        column has a zero entry there).
        """
        for r, col in enumerate(self.basis):
            if col in self.artificials:
                pivot_col = min(
                    (j for j in self.rows[r] if j not in self.artificials), default=-1
                )
                if pivot_col >= 0:
                    self._pivot(r, pivot_col)

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
        return SolveStats(len(self.rows), self.ncols, self.pivots[0], self.pivots[1], widest)


class _Encoder:
    """Builds the standard form for a LinearSystem and maps answers back."""

    def __init__(self, system: LinearSystem):
        self.system = system
        self.tab = _Tableau()
        self.part_cols: list[tuple[int, int | None]] = []
        for sign in system.var_signs:
            pos = self.tab.add_column()
            neg = self.tab.add_column() if sign == SIGN_FREE else None
            self.part_cols.append((pos, neg))
        self.row_flip: list[tuple[int, Fraction]] = []  # (original row index, sign)

    def _base_coeffs(self, row: LinearRow, flip: bool) -> dict[int, int | Fraction]:
        coeffs: dict[int, int | Fraction] = {}
        for (pos, neg), c in zip(self.part_cols, row.coeffs):
            if c == 0:
                continue
            value = -c if flip else c
            coeffs[pos] = value
            if neg is not None:
                coeffs[neg] = -value
        return coeffs

    def add_system_row(self, index: int, delta_col: int | None) -> None:
        row = self.system.rows[index]
        if row.relation == REL_EQ:
            flip = row.rhs < 0
            coeffs = self._base_coeffs(row, flip)
            self.tab.add_row(coeffs, -row.rhs if flip else row.rhs, None)
            self.row_flip.append((index, Fraction(-1 if flip else 1)))
            return
        # inequality: lhs - delta >= rhs (delta only on strict rows)
        use_delta = row.relation == REL_GT
        if row.rhs <= 0:
            # negate so the slack column enters with +1 and rhs stays >= 0
            coeffs = self._base_coeffs(row, True)
            if use_delta:
                coeffs[delta_col] = 1
            slack = self.tab.add_column()
            coeffs[slack] = 1
            self.tab.add_row(coeffs, -row.rhs, slack)
            self.row_flip.append((index, Fraction(-1)))
        else:
            coeffs = self._base_coeffs(row, False)
            if use_delta:
                coeffs[delta_col] = -1
            surplus = self.tab.add_column()
            coeffs[surplus] = -1
            self.tab.add_row(coeffs, row.rhs, None)
            self.row_flip.append((index, Fraction(1)))

    def witness(self) -> tuple[Fraction, ...]:
        sol = self.tab.solution()
        values = []
        for pos, neg in self.part_cols:
            v = sol.get(pos, _ZERO)
            if neg is not None:
                v -= sol.get(neg, _ZERO)
            values.append(v)
        return tuple(values)

    def certificate(self) -> tuple[Fraction, ...]:
        duals = self.tab.duals()
        mults = [_ZERO] * len(self.system.rows)
        for std_index, (orig_index, sign) in enumerate(self.row_flip):
            mults[orig_index] += sign * duals[std_index]
        return tuple(mults)


def _finish_infeasible(system: LinearSystem, enc: _Encoder) -> FeasibilityResult:
    cert = enc.certificate()
    require(certifies_infeasibility(system, cert),
            "solver: invalid infeasibility certificate")
    return FeasibilityResult(False, None, cert, enc.tab.stats())


def _finish_feasible(system: LinearSystem, enc: _Encoder) -> FeasibilityResult:
    point = enc.witness()
    require(satisfies(system, point), "solver: witness fails substitution")
    return FeasibilityResult(True, point, None, enc.tab.stats())


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide the system exactly, with a re-verified witness or certificate.

    Strict rows share one slack delta >= 0, capped at 1. Any strictly
    feasible point has a positive least slack, and the cap keeps the
    program bounded without changing the verdict: feasible iff the maximal
    delta exceeds zero.
    """
    enc = _Encoder(system)
    tab = enc.tab
    strict = any(row.relation == REL_GT for row in system.rows)
    delta = tab.add_column() if strict else None
    for index in range(len(system.rows)):
        enc.add_system_row(index, delta)
    if strict:
        cap_slack = tab.add_column()
        tab.add_row({delta: 1, cap_slack: 1}, 1, cap_slack)
        enc.row_flip.append((-1, _ZERO))  # the cap carries no certificate weight
    if tab.artificials:
        tab.run([1 if j in tab.artificials else 0 for j in range(tab.ncols)], set())
        if tab.value > 0:
            return _finish_infeasible(system, enc)
        tab.drive_out_artificials()
    if strict:
        costs = [0] * tab.ncols
        costs[delta] = -1
        tab.phase = 1
        tab.run(costs, tab.artificials)
        if tab.value == 0:
            return _finish_infeasible(system, enc)
    return _finish_feasible(system, enc)


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


def alternative_strict(matrix: Sequence[Sequence[Fraction]]) -> AlternativeResult:
    """Either w >= 0 with w^T L strictly positive in every column, or a
    nonnegative nonzero column mixture lam with L lam <= 0 componentwise.
    """
    rows = _as_matrix(matrix)
    n, m = len(rows), len(rows[0])
    system = LinearSystem(
        num_vars=n,
        rows=tuple(
            LinearRow(tuple(rows[i][j] for i in range(n)), REL_GT, _ZERO)
            for j in range(m)
        ),
        var_signs=tuple([SIGN_NONNEG] * n),
    )
    # solve_feasibility has checked the witness, and the Farkas multipliers
    # of this system are a mixture with L lam <= 0; scaling keeps both.
    result = solve_feasibility(system)
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
    n, m = len(rows), len(rows[0])
    system = LinearSystem(
        num_vars=m,
        rows=tuple(
            LinearRow(tuple(-rows[i][j] for j in range(m)), REL_GT, _ZERO)
            for i in range(n)
        ),
        var_signs=tuple([SIGN_NONNEG] * m),
    )
    # solve_feasibility has checked the witness, and the Farkas multipliers
    # of this system are weights with w^T L >= 0; scaling keeps both.
    result = solve_feasibility(system)
    if result.feasible:
        return AlternativeResult(weights=None, mixture=_normalized(result.witness))
    return AlternativeResult(weights=_normalized(result.certificate), mixture=None)


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
    tab.phase = 1  # the slack basis is already feasible
    tab.run(costs, set())
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
