"""Exact decisions of homogeneous cones, with evidence.

Everything here is exact integer and Fraction arithmetic, with no
tolerances. Every system is a homogeneous cone, rows g.z >= 0 or g.z > 0
over z >= 0: each theorem of the alternative below is one. A query either
comes back feasible with a witness point, or infeasible with a
Farkas-style certificate: nonnegative multipliers on the rows whose
combination has no positive coefficient and positive weight on a strict
row, the contradiction 0 > 0. Before either is returned it goes through
the matching check in `certificates` (`satisfies` or
`certifies_infeasibility`, both importable from here too), and a failure
raises InternalError.

The solver is a single primal simplex run on the standard equality form
with Bland's anti-cycling pivot rule, which also makes every answer
deterministic for a given input. Strict rows share one slack variable
delta, 0 <= delta <= 1, so g.z > 0 becomes g.z - delta >= 0, and the cone
is feasible iff the maximal delta is positive. Each row enters with its own
slack column and a zero right-hand side, so the slack basis is feasible
and one run decides. Infeasibility certificates are read off the dual
values of the final, delta-maximizing basis; the cap row takes no part in
them.

The tableau is fraction-free: sparse integer rows over one common
denominator, the basis determinant, updated by Bareiss pivots whose
divisions are exact. Integer systems enter as integers and rational ones
scaled row by row. Witnesses and duals are read, checked and stored as
integer numerators; Fractions are formed only when a caller reads a vector,
or once for a game's answer. Each answer carries SolveStats (shape, pivots,
widest entry), which take no part in equality.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .certificates import (
    REL_GE,
    REL_GT,
    certifies_infeasibility,
    failed_column,
    game_problem,
    require,
    satisfies,
)
from .core import Frozen, Mixture, over_common_denominator

_RELATIONS = (REL_GE, REL_GT)
_EXACT = {int, Fraction}
_INT = {int}


def _rationals(values) -> tuple[int | Fraction, ...]:
    """Ints stay ints, so integer systems reach the solver as integers, and
    anything else but a Fraction becomes one."""
    values = tuple(values)
    if _EXACT.issuperset(map(type, values)):
        return values
    return tuple(v if type(v) is int else Fraction(v) for v in values)


class LinearRow(Frozen):
    """One row g.z >= 0 or g.z > 0 of a homogeneous cone."""

    _fields = ("coeffs", "relation")

    def __init__(self, coeffs: Sequence[int | Fraction], relation: str) -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {relation!r}")
        self._set(_rationals(coeffs), relation)


class LinearSystem(Frozen):
    """A homogeneous cone: rows over num_vars variables z >= 0."""

    _fields = ("num_vars", "rows")

    def __init__(self, num_vars: int, rows: tuple[LinearRow, ...]) -> None:
        if num_vars < 1:
            raise ValueError("a system needs at least one variable")
        for row in rows:
            if len(row.coeffs) != num_vars:
                raise ValueError("row length does not match the variable count")
        self._set(num_vars, rows)


class SolveStats(Frozen):
    """What the simplex did for one answer: the final tableau's shape, its
    pivots, and the widest integer the tableau held at the end, in bits."""

    _fields = ("rows", "columns", "pivots", "max_bits")


class FeasibilityResult(Frozen):
    """Outcome of a feasibility query. Exactly one of witness and
    certificate is set, as rationals or as integers over the positive scale
    given; it is stored, compared and hashed as `numerators` over `scale` in
    lowest terms, and its tuple is built when read.  stats are not part of
    the answer."""

    _fields = ("feasible", "numerators", "scale", "stats")
    _compared = _fields[:3]

    def __init__(self, feasible: bool, witness, certificate, stats=None, scale: int = 1) -> None:
        numerators, den = over_common_denominator(witness if feasible else certificate)
        den *= scale
        common = gcd(den, *numerators)
        self._set(feasible, tuple(v // common for v in numerators), den // common, stats)

    @property
    def witness(self) -> tuple[Fraction, ...] | None:
        return tuple(Fraction(v, self.scale) for v in self.numerators) if self.feasible else None

    @property
    def certificate(self) -> tuple[Fraction, ...] | None:
        return None if self.feasible else tuple(Fraction(v, self.scale) for v in self.numerators)


# ---------------------------------------------------------------------------
# Standard-form simplex


class _Tableau:
    """Fraction-free simplex tableau, Bland's rule throughout.

    Each row holds only its nonzero entries, as ints over one positive
    common denominator `den`, the determinant of the current basis: entry v
    stands for v / den.  The reduced-cost row `cbar` and `zb`, minus the
    objective value, are kept on the same scale.  A pivot on entry p turns
    every entry v whose row has f in the pivot column, and whose column
    has w in the pivot row, into (v * p - f * w) / den; that division is
    exact (Edmonds 1967; Bareiss 1968), and p becomes the new denominator,
    with the tableau negated when p < 0.  `solution` and `duals` are read
    as integer numerators over that denominator, with it.
    """

    def __init__(self) -> None:
        self.rows: list[dict[int, int]] = []
        self.b: list[int] = []  # the right-hand column
        self.den = 1
        self.ncols = 0
        self.basis: list[int] = []
        self.init_col: list[int] = []  # identity column of each row at start
        self.costs: dict[int, int] = {}
        self.cbar: dict[int, int] = {}
        self.zb = 0
        self.pivots = 0

    def add_column(self) -> int:
        self.ncols += 1
        return self.ncols - 1

    def add_row(self, coeffs: dict[int, int], b: int, slack: int) -> None:
        """Append an equality row of ints, its nonzero entries and b >= 0,
        whose slack, a +1 unit column among them, starts the basis."""
        require(b >= 0, "solver: row with a negative right-hand side")
        self.rows.append(coeffs)
        self.b.append(b)
        self.basis.append(slack)
        self.init_col.append(slack)

    def _pivot(self, r: int, e: int) -> None:
        rows, b = self.rows, self.b
        prow = rows[r]
        p = prow[e]
        if p < 0:
            p = -p
            rows[r] = prow = {j: -v for j, v in prow.items()}
            b[r] = -b[r]
        pitems = prow.items()
        pb = b[r]
        for i, row in enumerate(rows):
            if i != r:
                rows[i], b[i] = self._eliminate(row, b[i], e, p, pitems, pb)
        self.cbar, self.zb = self._eliminate(self.cbar, self.zb, e, p, pitems, pb)
        self.den = p
        self.basis[r] = e
        self.pivots += 1

    def _eliminate(self, row, b, e, p, pitems, pb):
        """One row after a pivot on entry p of column e: (v * p - f * w) / den
        on its nonzeros and the pivot row's, divided exactly.  When p is den
        that is v - f * w / den: a copy, changed on the pivot row's columns."""
        den = self.den
        f = row.get(e)
        if not f:
            if p == den:
                return row, b
            return {j: v * p // den for j, v in row.items()}, b * p // den
        if p == den:
            new = row.copy()
            for j, w in pitems:
                v = new.get(j, 0) - f * w // den
                if v:
                    new[j] = v
                else:
                    del new[j]
            return new, b - f * pb // den
        new = {j: v * p for j, v in row.items()}
        for j, w in pitems:
            new[j] = new.get(j, 0) - f * w
        return {j: v // den for j, v in new.items() if v}, (b * p - f * pb) // den

    def run(self, costs: list[int]) -> None:
        """Minimize integer costs from the current, feasible basis."""
        rows, b, den, basis = self.rows, self.b, self.den, self.basis
        self.costs = {j: c for j, c in enumerate(costs) if c}
        cbar = {j: c * den for j, c in self.costs.items()}
        zb = 0
        for r, col in enumerate(basis):
            cb = self.costs.get(col)
            if cb:
                for j, v in rows[r].items():
                    cbar[j] = cbar.get(j, 0) - cb * v
                zb -= cb * b[r]
        self.cbar = {j: v for j, v in cbar.items() if v}
        self.zb = zb
        while True:
            enter = min((j for j, v in self.cbar.items() if v < 0), default=-1)
            if enter < 0:
                return
            # Bland's ratio test, b[r] / a compared by cross-multiplying.
            leave = -1
            for r, row in enumerate(rows):
                a = row.get(enter, 0)
                if a > 0:
                    if leave >= 0:
                        ratio, best = b[r] * best_a, b[leave] * a
                        if ratio > best or (ratio == best and basis[r] > basis[leave]):
                            continue
                    leave, best_a = r, a
            require(leave >= 0, "solver: unbounded program")
            self._pivot(leave, enter)

    def solution(self) -> tuple[dict[int, int], int]:
        """The basic variables' numerators, and their denominator."""
        return dict(zip(self.basis, self.b)), self.den

    def duals(self) -> tuple[list[int], int]:
        """Row duals of the last run, costs[init] - cbar[init], likewise."""
        den, costs, cbar = self.den, self.costs, self.cbar
        return [costs.get(col, 0) * den - cbar.get(col, 0) for col in self.init_col], den

    def stats(self) -> SolveStats:
        entries = itertools.chain.from_iterable(map(dict.values, self.rows))
        widest = max(map(int.bit_length, itertools.chain(
            entries, self.b, self.cbar.values(), (self.zb, self.den))))
        return SolveStats(len(self.rows), self.ncols, self.pivots, widest)


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide the cone exactly, with a re-verified witness or certificate.

    The standard form has the variables as its first columns, then delta
    when some row is strict, then one slack per row.  Each row g.z >= 0
    enters negated, -g.z (+ delta) + slack = 0, so the slack basis is
    feasible, and the cap delta + slack = 1 comes last.  One simplex run
    maximizes delta: any strictly feasible point has a positive least
    slack, and the cap keeps the program bounded without changing the
    verdict, feasible iff the maximal delta exceeds zero.  A cone with no
    strict row is feasible at zero without a run.

    A certificate is minus the duals of the cone's rows; the cap takes no
    part, as its dual vanishes at delta = 0.
    """
    nvars = system.num_vars
    strict = any(row.relation == REL_GT for row in system.rows)
    delta = nvars  # its column, when some row is strict
    tab = _Tableau()
    for _ in range(nvars + strict):
        tab.add_column()
    scales = []
    for row in system.rows:
        coeffs = {j: -c for j, c in enumerate(row.coeffs) if c}
        if row.relation == REL_GT:
            coeffs[delta] = 1
        scales.append(_add_slack_row(tab, coeffs, 0))
    if strict:
        _add_slack_row(tab, {delta: 1}, 1)
        costs = [0] * tab.ncols
        costs[delta] = -1
        tab.run(costs)
    point, den = tab.solution()
    if strict and not point.get(delta):
        duals, den = tab.duals()
        cert = [-d * scale for d, scale in zip(duals, scales)]
        require(certifies_infeasibility(system, cert),
                "solver: invalid infeasibility certificate")
        return FeasibilityResult(False, None, cert, tab.stats(), den)
    witness = [point.get(j, 0) for j in range(nvars)]
    require(satisfies(system, witness), "solver: witness fails substitution")
    return FeasibilityResult(True, witness, None, tab.stats(), den)


def _add_slack_row(tab: _Tableau, coeffs: dict[int, int | Fraction], b: int) -> int:
    """coeffs + slack = b, the slack a new column that starts the basis, in
    integers: a row with other entries than ints is multiplied, b with it,
    by the lcm s of their denominators, its slack standing for s times its
    own.  No sign of a reduced cost and no ratio changes, so neither does a
    pivot, and the row's dual is divided by s, which is returned."""
    scale = 1
    if not _INT.issuperset(map(type, coeffs.values())):
        scale = lcm(*(v.denominator for v in coeffs.values()))
        coeffs = {j: v.numerator * (scale // v.denominator) for j, v in coeffs.items()}
    slack = tab.add_column()
    coeffs[slack] = 1
    tab.add_row(coeffs, b * scale, slack)
    return scale


# ---------------------------------------------------------------------------
# Theorems of the alternative


class AlternativeResult(Frozen):
    """Exactly one of the two mutually exclusive sides.

    weights: the combining vector over matrix rows (normalized to sum 1).
    mixture: the opposing vector over matrix columns (normalized to sum 1).
    Either is given as rationals or integer numerators over a positive scale
    and stored, compared and hashed as a core.Mixture, `row_side` or
    `column_side`, coprime integers over their total, read on demand.
    """

    _fields = ("row_side", "column_side")

    def __init__(self, weights, mixture) -> None:
        self._set(None if weights is None else _normalized(weights),
                  None if mixture is None else _normalized(mixture))

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        return self.row_side and self.row_side.probs

    @property
    def mixture(self) -> tuple[Fraction, ...] | None:
        return self.column_side and self.column_side.probs


def _as_matrix(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[int | Fraction, ...]]:
    rows = list(map(_rationals, matrix))
    if not rows or not rows[0]:
        raise ValueError("the matrix must be nonempty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must have equal length")
    return rows


def _normalized(values) -> Mixture:
    """Nonnegative rationals, or integer numerators over a positive scale,
    scaled to sum one: their direction in coprime integers over its total."""
    numerators, _ = over_common_denominator(values)
    total = sum(numerators)
    require(total > 0, "solver: vector has no mass to normalize")
    return Mixture.in_lowest_terms(numerators, total)


def _solve_cone(rows, relations) -> FeasibilityResult:
    """Solve row . z (relation) 0 for each row, over z >= 0."""
    return solve_feasibility(LinearSystem(
        len(rows[0]), tuple(LinearRow(tuple(row), rel) for row, rel in zip(rows, relations))))


def alternative_strict(matrix: Sequence[Sequence[Fraction]]) -> AlternativeResult:
    """Either w >= 0 with w^T L strictly positive in every column, or a
    nonnegative nonzero column mixture lam with L lam <= 0 componentwise.
    """
    rows = _as_matrix(matrix)
    # solve_feasibility has checked the witness, and the Farkas multipliers
    # of this system are a mixture with L lam <= 0; scaling keeps both.
    result = _solve_cone(list(zip(*rows)), [REL_GT] * len(rows[0]))
    side = result.numerators
    return AlternativeResult(side, None) if result.feasible else AlternativeResult(None, side)


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
    side = result.numerators
    return AlternativeResult(None, side) if result.feasible else AlternativeResult(side, None)


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
        return AlternativeResult(None, result.numerators)
    *u, v = result.numerators
    weights = [ui + v for ui in u]
    require(failed_column(rows, weights, strict=False) is None,
            "solver: positive weights fail a column")
    return AlternativeResult(weights, None)


# ---------------------------------------------------------------------------
# Matrix games


class GameSolution(Frozen):
    """Exact value and optimal mixed strategies of a zero-sum matrix game.

    The row player picks row_strategy (sum 1, nonnegative) to maximize, the
    column player picks col_strategy to minimize, and
    row_strategy^T A >= value >= A col_strategy holds componentwise.
    """

    _fields = ("value", "row_strategy", "col_strategy", "stats")
    _compared = _fields[:3]


def matrix_game(matrix: Sequence[Sequence[Fraction]]) -> GameSolution:
    """Solve max_x min_y x^T A y over mixed strategies, exactly.

    Implemented as the classical reduction: shift A to strictly positive
    entries, solve max sum(z) subject to (A + k) z <= 1, z >= 0 (the slack
    basis is immediately feasible), and scale the primal and dual optima
    back into strategies. The shift k cancels out of the reported value.
    Both optima are read as integer numerators, each over its own total.
    """
    rows = _as_matrix(matrix)
    m = len(rows[0])
    low = min(map(min, rows))
    k = 1 - low if low < 1 else 0
    tab = _Tableau()
    for _ in range(m):
        tab.add_column()
    scales = [_add_slack_row(tab, {j: a + k for j, a in enumerate(row)}, 1) for row in rows]
    tab.run([-1] * m + [0] * len(rows))
    sol, den = tab.solution()
    z = [sol.get(j, 0) for j in range(m)]
    total = sum(z)
    require(total > 0, "solver: game normalization degenerated")
    duals, dual_den = tab.duals()
    u = [-d * scale for d, scale in zip(duals, scales)]  # the <= rows' multipliers
    u_total = sum(u)
    require(u_total * den == total * dual_den, "solver: game duality gap")
    value = Fraction(den, total) - k
    col_strategy = tuple(Fraction(v, total) for v in z)
    row_strategy = tuple(Fraction(v, u_total) for v in u)
    problem = game_problem(rows, value, row_strategy, col_strategy)
    require(problem is None, f"solver: {problem}")
    return GameSolution(value, row_strategy, col_strategy, tab.stats())
