"""The dense Fraction simplex tableau that robustvote.lp used before its
fraction-free rewrite, kept verbatim as a reference engine for the tests.

`Reference` adapts it to the fraction-free `_Tableau`'s one entry,
`_Tableau(ncols)` then `add_row(coeffs, b=0)` per row, and plugs it into the
encodings of robustvote.lp in its place (see tests/test_fraction_free.py),
so both engines answer the same standard forms and must agree entry for
entry.  The adapter gives each row its slack column, as `add_row` does, but
keeps the row's rationals unscaled and so returns the scale 1.
"""

from __future__ import annotations

from fractions import Fraction

from robustvote.certificates import require
from robustvote.core import over_common_denominator

_ZERO = Fraction(0)
_ONE = Fraction(1)


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



class Reference(_Tableau):
    """The reference engine under the hooks the fraction-free tableau adds.
    It is entered as that one is, `Reference(ncols)` then `add_row` per row,
    and its readers give the dense tableau's rationals as the fraction-free
    ones give theirs: integer numerators over one denominator, with it."""

    def __init__(self, ncols: int) -> None:
        super().__init__()
        for _ in range(ncols):
            self.add_column()

    def add_row(self, coeffs: dict[int, Fraction], b: Fraction = 0) -> int:
        """coeffs + slack = b, the slack a new unit column that starts the
        basis.  The row keeps its rationals, so its dual needs no rescaling:
        the scale returned is 1."""
        slack = self.add_column()
        super().add_row({**coeffs, slack: _ONE}, b, slack)
        return 1

    def run(self, costs: list[Fraction]) -> None:
        """One run from a feasible basis: nothing is barred."""
        super().run(costs, set())

    def solution(self) -> tuple[dict[int, int], int]:
        values = super().solution()
        numerators, den = over_common_denominator(list(values.values()))
        return dict(zip(values, numerators)), den

    def duals(self) -> tuple[list[int], int]:
        return over_common_denominator(super().duals())

    def stats(self) -> None:
        return None
