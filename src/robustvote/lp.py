"""Exact rational linear feasibility with evidence.

Everything here runs over fractions.Fraction, with no tolerances. A query
either comes back feasible with a witness point, or infeasible with a
Farkas-style certificate: nonnegative multipliers on the rows (sign-free on
equalities) whose combination reduces the system to the contradiction
0 > 0 or 0 >= c with c > 0. Before either is returned it goes through the
matching check in `certificates` (`satisfies` or `certifies_infeasibility`,
both importable from here too), and a failure raises InternalError.

The solver is a two-phase primal simplex on the standard equality form
with Bland's anti-cycling pivot rule, which also makes every answer
deterministic for a given input. Strict inequalities never enter the
simplex directly: a homogeneous system gains a shared slack variable
delta, bounded through the normalization sum(variable parts) = 1, and is
feasible iff the maximal delta is positive; a system with nonzero
right-hand sides caps delta at 1 instead. Free variables are split into
differences of nonnegative parts first.

Infeasibility certificates are read off the dual values of the final
simplex basis (the phase-one basis when the weakened system is already
infeasible, the delta-maximizing basis otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class LinearRow:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))


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
class FeasibilityResult:
    """Outcome of a feasibility query. Exactly one of the fields is set."""

    feasible: bool
    witness: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None


# ---------------------------------------------------------------------------
# Standard-form simplex


class _Unbounded(Exception):
    pass


class _Tableau:
    """Dense simplex tableau over exact rationals, Bland's rule throughout."""

    def __init__(self) -> None:
        self.rows: list[list[Fraction]] = []  # coefficient rows, rhs appended later
        self.rhs: list[Fraction] = []
        self.ncols = 0
        self.basis: list[int] = []
        self.init_col: list[int] = []  # identity column of each row at start
        self.artificials: set[int] = set()
        self.cbar: list[Fraction] = []
        self.costs: list[Fraction] = []

    def add_column(self) -> int:
        for row in self.rows:
            row.append(_ZERO)
        self.ncols += 1
        return self.ncols - 1

    def add_row(self, coeffs: dict[int, Fraction], b: Fraction, basis_ready_col: int | None) -> None:
        """Append an equality row with b >= 0; give it an identity column.

        basis_ready_col names an existing +1 unit column for this row (a
        slack); if None, a fresh artificial column is created.
        """
        require(b >= 0, "solver: row with a negative right-hand side")
        row = [_ZERO] * self.ncols
        for col, value in coeffs.items():
            row[col] = value
        self.rows.append(row)
        self.rhs.append(b)
        if basis_ready_col is None:
            col = self.add_column()
            self.rows[-1][col] = _ONE
            self.artificials.add(col)
        else:
            col = basis_ready_col
        self.basis.append(col)
        self.init_col.append(col)

    def _pivot(self, r: int, e: int) -> None:
        rows, rhs, cbar = self.rows, self.rhs, self.cbar
        prow = rows[r]
        inv = _ONE / prow[e]
        if inv != 1:
            rows[r] = prow = [v * inv for v in prow]
            rhs[r] *= inv
        nz = [(j, v) for j, v in enumerate(prow) if v]
        prhs = rhs[r]
        for i, row in enumerate(rows):
            if i == r:
                continue
            factor = row[e]
            if factor:
                for j, v in nz:
                    row[j] -= factor * v
                rhs[i] -= factor * prhs
        factor = cbar[e]
        if factor:
            for j, v in nz:
                cbar[j] -= factor * v
            self.value += factor * prhs
        self.basis[r] = e

    def run(self, costs: list[Fraction], barred: set[int]) -> None:
        """Minimize costs over the current basis; raises _Unbounded."""
        self.costs = costs
        cbar = costs[:]
        value = _ZERO
        for r, col in enumerate(self.basis):
            cb = costs[col]
            if cb:
                row = self.rows[r]
                for j in range(self.ncols):
                    if row[j]:
                        cbar[j] -= cb * row[j]
                value += cb * self.rhs[r]
        self.cbar = cbar
        self.value = value
        rows, rhs = self.rows, self.rhs
        while True:
            enter = -1
            for j in range(self.ncols):
                if j not in barred and cbar[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best: Fraction | None = None
            for r in range(len(rows)):
                a = rows[r][enter]
                if a > 0:
                    ratio = rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                raise _Unbounded
            self._pivot(leave, enter)

    def drive_out_artificials(self) -> None:
        """Degenerate-pivot basic artificials onto real columns where possible.

        A row whose real entries are all zero is redundant; its artificial
        stays basic at level zero and never moves again (every entering
        column has a zero entry there).
        """
        for r, col in enumerate(self.basis):
            if col not in self.artificials:
                continue
            pivot_col = -1
            for j in range(self.ncols):
                if j not in self.artificials and self.rows[r][j] != 0:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                self._pivot(r, pivot_col)

    def solution(self) -> dict[int, Fraction]:
        return {col: self.rhs[r] for r, col in enumerate(self.basis)}

    def duals(self) -> list[Fraction]:
        """Row duals of the last run: costs[init] - cbar[init] per row."""
        return [
            self.costs[self.init_col[r]] - self.cbar[self.init_col[r]]
            for r in range(len(self.rows))
        ]


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
        self.delta_plus: int | None = None
        self.delta_minus: int | None = None
        self.row_flip: list[tuple[int, Fraction]] = []  # (original row index, sign)

    def _base_coeffs(self, row: LinearRow, flip: bool) -> dict[int, Fraction]:
        coeffs: dict[int, Fraction] = {}
        for (pos, neg), c in zip(self.part_cols, row.coeffs):
            if c == 0:
                continue
            value = -c if flip else c
            coeffs[pos] = coeffs.get(pos, _ZERO) + value
            if neg is not None:
                coeffs[neg] = coeffs.get(neg, _ZERO) - value
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
        use_delta = delta_col is not None and row.relation == REL_GT
        if row.rhs <= 0:
            # negate so the slack column enters with +1 and rhs stays >= 0
            coeffs = self._base_coeffs(row, True)
            if use_delta:
                coeffs[delta_col] = coeffs.get(delta_col, _ZERO) + _ONE
                if self.delta_minus is not None and delta_col == self.delta_plus:
                    coeffs[self.delta_minus] = coeffs.get(self.delta_minus, _ZERO) - _ONE
            slack = self.tab.add_column()
            coeffs[slack] = _ONE
            self.tab.add_row(coeffs, -row.rhs, slack)
            self.row_flip.append((index, Fraction(-1)))
        else:
            coeffs = self._base_coeffs(row, False)
            if use_delta:
                coeffs[delta_col] = coeffs.get(delta_col, _ZERO) - _ONE
                if self.delta_minus is not None and delta_col == self.delta_plus:
                    coeffs[self.delta_minus] = coeffs.get(self.delta_minus, _ZERO) + _ONE
            surplus = self.tab.add_column()
            coeffs[surplus] = Fraction(-1)
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
    return FeasibilityResult(False, None, cert)


def _finish_feasible(system: LinearSystem, enc: _Encoder) -> FeasibilityResult:
    point = enc.witness()
    require(satisfies(system, point), "solver: witness fails substitution")
    return FeasibilityResult(True, point, None)


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide the system exactly, with a re-verified witness or certificate."""
    has_strict = any(row.relation == REL_GT for row in system.rows)
    if not has_strict:
        return _solve_weak(system)
    if all(row.rhs == 0 for row in system.rows):
        return _solve_strict_homogeneous(system)
    return _solve_strict_capped(system)


def _solve_weak(system: LinearSystem) -> FeasibilityResult:
    enc = _Encoder(system)
    for index in range(len(system.rows)):
        enc.add_system_row(index, None)
    tab = enc.tab
    if tab.artificials:
        costs = [_ONE if j in tab.artificials else _ZERO for j in range(tab.ncols)]
        tab.run(costs, set())
        if tab.value > 0:
            return _finish_infeasible(system, enc)
        tab.drive_out_artificials()
    return _finish_feasible(system, enc)


def _solve_strict_homogeneous(system: LinearSystem) -> FeasibilityResult:
    """Maximize the shared strict slack delta under sum(parts) = 1.

    All rows are homogeneous, so the system is feasible iff some point on
    the normalized part simplex gives every strict row slack at least
    delta > 0. delta is free: its optimum is the best achievable margin
    and can be negative.
    """
    enc = _Encoder(system)
    enc.delta_plus = enc.tab.add_column()
    enc.delta_minus = enc.tab.add_column()
    for index in range(len(system.rows)):
        enc.add_system_row(index, enc.delta_plus)
    norm = {pos: _ONE for pos, _ in enc.part_cols}
    for _, neg in enc.part_cols:
        if neg is not None:
            norm[neg] = _ONE
    enc.tab.add_row(norm, _ONE, None)
    enc.row_flip.append((-1, _ZERO))  # normalization row carries no certificate weight
    tab = enc.tab
    costs1 = [_ONE if j in tab.artificials else _ZERO for j in range(tab.ncols)]
    tab.run(costs1, set())
    if tab.value > 0:
        # The normalization itself is unreachable (the weak cone is {0}).
        # The capped encoding certifies such systems without it.
        return _solve_strict_capped(system)
    tab.drive_out_artificials()
    costs2 = [_ZERO] * tab.ncols
    costs2[enc.delta_plus] = Fraction(-1)
    costs2[enc.delta_minus] = _ONE
    tab.run(costs2, tab.artificials)
    delta = -tab.value
    if delta > 0:
        return _finish_feasible(system, enc)
    return _finish_infeasible(system, enc)


def _solve_strict_capped(system: LinearSystem) -> FeasibilityResult:
    """Strict rows with general right-hand sides: maximize delta, capped at 1.

    Any strictly feasible point has a positive minimal slack, so capping
    the shared slack keeps the program bounded without changing the
    verdict: feasible iff the optimum exceeds zero.
    """
    enc = _Encoder(system)
    delta = enc.tab.add_column()  # delta >= 0 suffices once the cap row exists
    enc.delta_plus = delta
    for index in range(len(system.rows)):
        enc.add_system_row(index, delta)
    cap_slack = enc.tab.add_column()
    enc.tab.add_row({delta: _ONE, cap_slack: _ONE}, _ONE, cap_slack)
    enc.row_flip.append((-1, _ZERO))
    tab = enc.tab
    if tab.artificials:
        costs1 = [_ONE if j in tab.artificials else _ZERO for j in range(tab.ncols)]
        tab.run(costs1, set())
        if tab.value > 0:
            return _finish_infeasible(system, enc)
        tab.drive_out_artificials()
    costs2 = [_ZERO] * tab.ncols
    costs2[delta] = Fraction(-1)
    tab.run(costs2, tab.artificials)
    if -tab.value > 0:
        return _finish_feasible(system, enc)
    return _finish_infeasible(system, enc)


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


def _as_matrix(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    rows = [[Fraction(v) for v in row] for row in matrix]
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
    """Either w >= 0, sum 1, with w^T L >= 0 in every column, or a strictly
    positive column mixture lam with L lam < 0 in every component.
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
    # The Farkas multipliers of this system are weights with w^T L >= 0.
    result = solve_feasibility(system)
    if result.feasible:
        mixture = _strictly_positive_shift(rows, result.witness)
        return AlternativeResult(weights=None, mixture=mixture)
    return AlternativeResult(weights=_normalized(result.certificate), mixture=None)


def _strictly_positive_shift(
    rows: list[list[Fraction]], mixture: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Perturb a nonnegative mixture with L lam << 0 to a strictly positive one.

    The strict inequalities have slack, so adding a small epsilon to every
    coordinate preserves them; epsilon is chosen exactly from the slacks.
    The slacks are positive because solve_feasibility checked the mixture.
    """
    lam = [Fraction(v) for v in mixture]
    epsilon = _ONE
    for row in rows:
        row_sum = sum(row, _ZERO)
        if row_sum > 0:
            slack = -sum((a * v for a, v in zip(row, lam)), _ZERO)
            epsilon = min(epsilon, slack / (2 * row_sum))
    shifted = _normalized([v + epsilon for v in lam])
    require(failed_row(rows, shifted, strict=True) is None,
            "solver: shifted mixture fails recheck")
    return shifted


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
    k = _ONE - low if low < 1 else _ZERO
    tab = _Tableau()
    z_cols = [tab.add_column() for _ in range(m)]
    for i in range(n):
        slack = tab.add_column()
        coeffs = {z_cols[j]: rows[i][j] + k for j in range(m)}
        coeffs[slack] = _ONE
        tab.add_row(coeffs, _ONE, slack)
    costs = [_ZERO] * tab.ncols
    for col in z_cols:
        costs[col] = Fraction(-1)
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
    return GameSolution(value=value, row_strategy=row_strategy, col_strategy=col_strategy)
