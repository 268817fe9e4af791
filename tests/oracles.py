"""Independent desk-scale oracles for cross-checking the package.

Everything here decides small problems by elimination or enumeration,
deliberately sharing no code path with the simplex engine under test.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from types import SimpleNamespace

STRICT = ">"
WEAK = ">="


def _normalize(coeffs, strict, rhs):
    # Scale so the first nonzero coefficient (or the rhs) has absolute
    # value one, keeping direction; lets duplicates collapse.
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            return tuple(v / scale for v in coeffs), strict, rhs / scale
    if rhs != 0:
        return coeffs, strict, rhs / abs(rhs)
    return coeffs, strict, rhs


def fm_feasible(constraints, num_vars: int) -> bool:
    """Fourier-Motzkin feasibility over the reals.

    constraints is an iterable of (coeffs, rel, rhs) with rel in {">", ">="},
    meaning sum(coeffs[k] * x[k]) rel rhs.  Equalities must be passed as two
    opposite weak rows.  Exact rationals throughout.

    Each row keeps its histories, the sets of input rows it is known to
    combine, minimal under inclusion.  After k eliminations a combination
    of more than k + 1 input rows is dropped (Chernikov 1965): its
    multipliers are no extreme ray of the cone of combinations cancelling
    those k variables, so it is a positive combination of rows on extreme
    rays, which elimination still produces (each is a combination of two
    extreme rays of the previous cone), and it is strict only if one of
    them is.  The variable with the fewest pairs to combine goes first.
    """
    rows: dict = {}  # row -> the minimal histories it is known under
    for index, (coeffs, rel, rhs) in enumerate(constraints):
        if rel not in (STRICT, WEAK):
            raise ValueError(f"unknown relation {rel!r}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != num_vars:
            raise ValueError("coefficient length mismatch")
        _add_history(rows, _normalize(coeffs, rel == STRICT, Fraction(rhs)), frozenset((index,)))

    remaining = set(range(num_vars))
    for eliminated in range(1, num_vars + 1):
        var = min(remaining, key=lambda v: _combinations(rows, v))
        remaining.remove(var)
        lowers = []   # rows giving x_var >= or > something
        uppers = []   # rows giving x_var <= or < something
        others = {}
        for row, histories in rows.items():
            c = row[0][var]
            if c == 0:
                others[row] = histories
            elif c > 0:
                lowers.append((row, histories))
            else:
                uppers.append((row, histories))
        rows = others
        for ((lc, ls, lr), lhs), ((uc, us, ur), uhs) in itertools.product(lowers, uppers):
            kept = [lh | uh for lh in lhs for uh in uhs if len(lh | uh) <= eliminated + 1]
            if not kept:
                continue
            # Combine with positive multipliers cancelling x_var. The
            # result is strict iff either parent is.
            a = lc[var]
            b = -uc[var]
            coeffs = tuple(b * lc[k] + a * uc[k] for k in range(num_vars))
            row = _normalize(coeffs, ls or us, b * lr + a * ur)
            for history in kept:
                _add_history(rows, row, history)

    for coeffs, strict, rhs in rows:
        # An explicit raise, not an assert, so the check survives python -O.
        if not all(c == 0 for c in coeffs):
            raise AssertionError(f"elimination left nonzero coefficients {coeffs}")
        if strict:
            if not 0 > rhs:
                return False
        elif not 0 >= rhs:
            return False
    return True


def _combinations(rows: dict, var: int) -> int:
    signs = [row[0][var] for row in rows]
    return sum(1 for c in signs if c > 0) * sum(1 for c in signs if c < 0)


def _add_history(rows: dict, row, history: frozenset) -> None:
    """Record that row arises from the input rows in history, unless it
    already arises from a subset of them; drop the supersets it replaces."""
    known = rows.setdefault(row, [])
    if any(h <= history for h in known):
        return
    known[:] = [h for h in known if not history <= h]
    known.append(history)


def _solve_square(matrix, vector):
    """Gaussian elimination over Fractions; None when singular."""
    size = len(matrix)
    aug = [list(matrix[i]) + [vector[i]] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def game_value_by_supports(matrix) -> Fraction:
    """Value of a zero-sum game (row maximizer) by support enumeration.

    Exact and independent of any LP code; intended for a handful of rows.
    For each candidate pair of equal-size supports, solve the equalization
    systems and keep the first pair whose strategies are nonnegative and
    undominated outside the supports.
    """
    rows = len(matrix)
    cols = len(matrix[0])
    grid = [[Fraction(v) for v in row] for row in matrix]

    for size in range(1, min(rows, cols) + 1):
        for srow in itertools.combinations(range(rows), size):
            for scol in itertools.combinations(range(cols), size):
                # Row strategy w on srow with w.R equal to v on scol,
                # sum w = 1. Unknowns: w (size entries) and v.
                a = []
                b = []
                for j in scol:
                    a.append([grid[i][j] for i in srow] + [Fraction(-1)])
                    b.append(Fraction(0))
                a.append([Fraction(1)] * size + [Fraction(0)])
                b.append(Fraction(1))
                row_solution = _solve_square(a, b)
                if row_solution is None:
                    continue
                w = row_solution[:size]
                value = row_solution[size]
                if any(x < 0 for x in w):
                    continue

                a = []
                b = []
                for i in srow:
                    a.append([grid[i][j] for j in scol] + [Fraction(-1)])
                    b.append(Fraction(0))
                a.append([Fraction(1)] * size + [Fraction(0)])
                b.append(Fraction(1))
                col_solution = _solve_square(a, b)
                if col_solution is None:
                    continue
                lam = col_solution[:size]
                if col_solution[size] != value or any(x < 0 for x in lam):
                    continue

                full_w = [Fraction(0)] * rows
                for k, i in enumerate(srow):
                    full_w[i] = w[k]
                full_lam = [Fraction(0)] * cols
                for k, j in enumerate(scol):
                    full_lam[j] = lam[k]
                if any(
                    sum(full_w[i] * grid[i][j] for i in range(rows)) < value
                    for j in range(cols)
                ):
                    continue
                if any(
                    sum(grid[i][j] * full_lam[j] for j in range(cols)) > value
                    for i in range(rows)
                ):
                    continue
                return value
    raise AssertionError("support enumeration found no equilibrium")


def wmr_exists_by_elimination(rule, sign_class: str, ties: str) -> bool:
    """Weight-vector existence decided by Fourier-Motzkin alone.

    Builds the per-profile sign constraints plus the sign-class rows and
    eliminates the n weight variables.  The all-zero vector satisfies every
    weak homogeneous system, so the tie-allowed variants need a nonzero
    guard; scaling invariance lets a single normalization row serve, but
    only per orthant, so a free query is decided orthant by orthant.

    Under w >= 0 the row of profile x is implied, and left out, when
    turning one vote x_j that agrees with the outcome against it leaves
    the outcome unchanged at y: the row of x is the row of y plus 2 w_j.
    """
    n = rule.n
    rows = []
    relation = STRICT if ties == "forbidden" else WEAK
    signed = sign_class in ("positive", "nonnegative")
    for idx, outcome in enumerate(rule.outcomes):
        votes = [1 if idx >> i & 1 else -1 for i in range(n)]
        if signed and any(vote == outcome and rule.outcomes[idx ^ 1 << i] == outcome
                          for i, vote in enumerate(votes)):
            continue
        rows.append((tuple(Fraction(outcome * vote) for vote in votes), relation, Fraction(0)))

    def unit(i):
        return tuple(Fraction(1 if k == i else 0) for k in range(n))

    if sign_class == "positive":
        for i in range(n):
            rows.append((unit(i), STRICT, Fraction(0)))
        return fm_feasible(rows, n)
    if sign_class == "nonnegative":
        for i in range(n):
            rows.append((unit(i), WEAK, Fraction(0)))
        if ties == "forbidden":
            return fm_feasible(rows, n)
        guard = (tuple(Fraction(1) for _ in range(n)), STRICT, Fraction(0))
        return fm_feasible(rows + [guard], n)
    if sign_class == "free":
        # w has the signs of some orthant: w_i = -v_i on a set of
        # individuals and v_i elsewhere, v >= 0, and v represents the rule
        # that reads those individuals' votes negated.
        return any(
            wmr_exists_by_elimination(
                SimpleNamespace(n=n, outcomes=tuple(rule.outcomes[idx ^ mask]
                                                    for idx in range(2**n))),
                "nonnegative", ties)
            for mask in range(2**n))
    raise ValueError(f"unknown sign class {sign_class!r}")


def efficient_by_elimination(rule, dist, mode: str) -> bool:
    """Efficiency decided by Fourier-Motzkin on the deviation systems.

    Deviating by t_x >= 0 at profile x moves E[outcome * x_i] by
    -p_x phi(x) x_i t_x.  The rule is inefficient iff some t >= 0 hurts
    nobody and differs somewhere (strict: sum t >= 1), hurts nobody and
    helps in total (plain), or helps everybody (weak).
    """
    n, size = rule.n, 2**rule.n
    probs = dist.probs
    rows = []
    for i in range(n):
        moves = tuple(-probs[x] * rule.outcomes[x] * (1 if x >> i & 1 else -1)
                      for x in range(size))
        rows.append((moves, STRICT if mode == "weak" else WEAK, Fraction(0)))
    rows += [(tuple(Fraction(int(k == x)) for k in range(size)), WEAK, Fraction(0))
             for x in range(size)]
    if mode == "strict":
        rows.append(((Fraction(1),) * size, WEAK, Fraction(1)))
    elif mode == "plain":
        total = tuple(sum(row[0][x] for row in rows[:n]) for x in range(size))
        rows.append((total, STRICT, Fraction(0)))
    elif mode != "weak":
        raise ValueError(f"unknown efficiency mode {mode!r}")
    return not fm_feasible(rows, size)


@functools.lru_cache(maxsize=None)
def _every_relabeling(n: int) -> tuple[dict[int, int], ...]:
    """All n! relabelings as maps from a profile index to the index its
    mass moves to.  Relabeling by perm puts at profile j the mass of the
    profile whose position-k vote is individual perm[k]'s vote in j."""
    return tuple(
        {sum(((j >> (individual - 1)) & 1) << k for k, individual in enumerate(perm)): j
         for j in range(2**n)}
        for perm in itertools.permutations(range(1, n + 1))
    )


def _moved(dist, move=None):
    # The relabeled support as plain ints, which hash far faster than Fractions.
    return tuple(sorted((idx if move is None else move[idx], p.numerator, p.denominator)
                        for idx, p in dist.support))


def invariant_under_every_relabeling(pset) -> bool:
    """Whether each of the n! relabelings maps every extreme point into the set."""
    members = {_moved(dist) for dist in pset.extreme_points}
    return all(_moved(dist, move) in members
               for move in _every_relabeling(pset.n) for dist in pset.extreme_points)


def orbit_average_over_every_relabeling(pset, index):
    """The average of one extreme point's n! relabeled copies, as mixture
    weights over the extreme points, or None when a copy is not in the set."""
    position = {_moved(dist): k for k, dist in enumerate(pset.extreme_points)}
    moves = _every_relabeling(pset.n)
    counts = [0] * len(pset.extreme_points)
    for move in moves:
        k = position.get(_moved(pset.extreme_points[index], move))
        if k is None:
            return None
        counts[k] += 1
    return tuple(Fraction(c, len(moves)) for c in counts)


def failed_column_by_columns(matrix, weights, bound=0, strict=True):
    """The first column j whose rational dot product sum_i w_i a_ij, formed
    one column at a time, is not above bound (strict) or not at least bound,
    or None."""
    for j in range(len(matrix[0])):
        dot = sum((Fraction(w) * row[j] for w, row in zip(weights, matrix)), Fraction(0))
        if not (dot > bound if strict else dot >= bound):
            return j
    return None


def responsiveness_by_atoms(rule, dist) -> tuple[Fraction, ...]:
    """(E[phi(x) x_i] + 1) / 2 for each individual i, the expectation a
    Fraction sum of p(x) phi(x) x_i over the support, votes read off the
    profile bits."""
    return tuple(
        (sum((p * rule.outcomes[idx] * (1 if idx >> i & 1 else -1)
              for idx, p in dist.support), Fraction(0)) + 1) / 2
        for i in range(rule.n)
    )


def vote_sums_by_rows(weights) -> list[Fraction]:
    """sum_i w_i x_i at every profile as exact rationals, one whole row of
    votes added per individual, the votes read off the profile bits."""
    sums = [Fraction(0)] * 2 ** len(weights)
    for i, w in enumerate(weights):
        sums = [s + (w if idx >> i & 1 else -w) for idx, s in enumerate(sums)]
    return sums


def agreement_matrix_by_atoms(outcomes, supports) -> list[list[Fraction]]:
    """Row i, column j: sum of p(x) phi(x) x_i over the j-th support, a
    Fraction sum with the votes read off the profile bits."""
    n = len(outcomes).bit_length() - 1
    return [[sum((p * outcomes[idx] * (1 if idx >> i & 1 else -1) for idx, p in support),
                 Fraction(0)) for support in supports] for i in range(n)]


def robustness_problem_on_matrix(matrix, strict, weights=None, mixture=None):
    """The robustness certificate check on the agreement matrix itself
    (individuals by extreme points), in rationals, column by column and row
    by row: weights must be a distribution clearing every column (strictly
    when strict), a mixture a distribution holding every row at or below
    zero (below zero when not strict).  The messages are the package's."""
    if weights is not None:
        if any(w < 0 for w in weights) or sum(weights) != 1:
            return "weights are not a distribution over individuals"
        j = failed_column_by_columns(matrix, weights, 0, strict)
        return None if j is None else f"weights fail extreme point {j}"
    if any(m < 0 for m in mixture) or sum(mixture) != 1:
        return "mixture is not a distribution over extreme points"
    for i, row in enumerate(matrix, start=1):
        dot = sum((a * m for a, m in zip(row, mixture)), Fraction(0))
        if not (dot <= 0 if strict else dot < 0):
            return f"mixture leaves individual {i} responsive"
    return None


def spread_dense(size: int, profiles: list[int]) -> tuple[Fraction, ...]:
    """Equal mass on each listed profile (a repeat adds up), as a dense
    tuple over all size profiles: the screen's refutation mixture."""
    mass = [Fraction(0)] * size
    for x in set(profiles):
        mass[x] = Fraction(profiles.count(x), len(profiles))
    return tuple(mass)


def screened_profiles(n: int, t: int, strict: bool) -> list[int] | None:
    """The profiles the screen's refutation of table t lists, read off the
    truth table one profile at a time, or None when it lists none: a profile
    deciding as its negation with that negation (strict); else the first
    own-vote violation pair of each violator, the first two profiles of
    them when strict, and, unless everyone is a violator, the first profile
    where every non-violator votes against the outcome."""
    size = 2**n
    outcome = [1 if t >> x & 1 else -1 for x in range(size)]
    if strict:
        twin = next((x for x in range(size) if outcome[x] == outcome[size - 1 - x]), None)
        if twin is not None:
            return [twin, size - 1 - twin]
    pairs, violators = [], set()
    for i in range(n):
        bit = 1 << i
        base = next((x for x in range(size) if not x & bit
                     and outcome[x] == 1 and outcome[x | bit] == -1), None)
        if base is not None:
            pairs += [base, base | bit]
            violators.add(i)
    if strict:
        return pairs[:2] or None
    against = next((x for x in range(size) if all(
        (1 if x >> i & 1 else -1) != outcome[x] for i in range(n) if i not in violators)), None)
    if against is None:
        return None
    return pairs + ([against] if len(violators) < n else [])


def net_gains_by_fractions(rule, utilities, mixture) -> tuple[Fraction, ...]:
    """Each individual's expected payoff from the rule over its inverse, a
    Fraction sum state by state: share * (hi - lo) where the rule decides
    +1, share * (lo - hi) where it decides -1."""
    gains = [Fraction(0)] * rule.n
    for share, outcome, row in zip(mixture, rule.outcomes, utilities):
        for i, (hi, lo) in enumerate(row):
            gains[i] += share * (hi - lo if outcome == 1 else lo - hi)
    return tuple(gains)


def transport_by_atoms(dist, rule, dominating) -> dict[int, Fraction] | None:
    """The transport as {profile index: probability} over its support:
    each atom's Fraction mass p(x) (1 - phi(x) dominating(x)) / 2, divided
    by their Fraction total; None when no mass moves."""
    raw = {idx: p * (1 - rule.outcomes[idx] * Fraction(dominating.outcomes[idx])) / 2
           for idx, p in dist.support}
    total = sum(raw.values(), Fraction(0))
    if not total:
        return None
    return {idx: mass / total for idx, mass in raw.items() if mass}


def dense_sign_table(n: int) -> list[list[int]]:
    """Row i-1 holds individual i's vote (+1 or -1) at every profile index,
    in index order, read off the profile bits one at a time."""
    return [[1 if idx >> i & 1 else -1 for idx in range(2**n)] for i in range(n)]
