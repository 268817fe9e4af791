"""The substitution kernels against references: the row-major column
check column by column, the doubling vote sums row by row, the
matrix-free robustness check against the check on the dense matrix, over
the point masses, general extreme points and random-rule outcomes, and the
common-denominator net gains and transport against Fraction sums."""

import random
import re
from fractions import Fraction as F
from math import lcm

import pytest

from robustvote import (
    Distribution,
    DistributionSet,
    RandomVotingRule,
    VotingRule,
    certify_p_robust,
    certify_p_robust_full,
    certify_random,
    responsiveness,
    weighted_majority_rule,
)
from robustvote.certificates import failed_column, net_gains, robustness_problem
from robustvote.core import Mixture, is_dictatorship, table_rule, vote_sums
from robustvote.efficiency import (
    EFFICIENCY_MODES,
    NoTransportError,
    _transport,
    efficiency_verdict,
    transport_distribution,
)
from robustvote.gamma_mechanism import gamma_counterexample, gamma_payoffs, gamma_utilities
from robustvote.robustness import MODES

from conftest import random_distribution
from oracles import (
    agreement_matrix_by_atoms,
    failed_column_by_columns,
    net_gains_by_fractions,
    responsiveness_by_atoms,
    robustness_problem_on_matrix,
    transport_by_atoms,
    vote_sums_by_rows,
)

MESSAGES = {None, "weights fail extreme point #", "mixture leaves individual # responsive",
            "weights are not a distribution over individuals",
            "mixture is not a distribution over extreme points"}


def _entry(rng: random.Random, rational: bool):
    value = rng.randint(-4, 4)
    return F(value, rng.randint(1, 6)) if rational else value


def _matrix(rng: random.Random, rows: int, columns: int, rational: bool):
    return [[_entry(rng, rational) for _ in range(columns)] for _ in range(rows)]


def _weights(rng: random.Random, rows: int):
    # About one weight in three is zero, so skipped rows are exercised.
    return [F(rng.randint(0, 5) * rng.randint(0, 1), rng.randint(1, 7)) for _ in range(rows)]


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_failed_column_matches_the_column_by_column_reference(rational):
    rng = random.Random(f"columns-{rational}")
    failures = set()
    for _ in range(300):
        rows, columns = rng.randint(1, 6), rng.randint(1, 20)
        matrix = _matrix(rng, rows, columns, rational)
        weights = _weights(rng, rows)
        # A bound at a column's own dot product makes the first failure
        # fall anywhere, not only at column 0.
        target = rng.randrange(columns)
        dot = sum((w * row[target] for w, row in zip(weights, matrix)), F(0))
        for bound in (F(0), dot, dot - F(1, 3), F(rng.randint(-3, 3), rng.randint(1, 5))):
            for strict in (True, False):
                expected = failed_column_by_columns(matrix, weights, bound, strict)
                assert failed_column(matrix, weights, bound, strict) == expected
                failures.add(expected)
    assert None in failures and len(failures) > 10


def _general_set(rng: random.Random, n: int) -> DistributionSet:
    """One to six extreme points, each on one to five random profiles."""
    points = []
    for _ in range(rng.randint(1, 6)):
        atoms = rng.sample(range(2**n), rng.randint(1, min(5, 2**n)))
        points.append(Distribution.from_weights(n, {x: F(rng.randint(1, 9)) for x in atoms}))
    return DistributionSet(n, tuple(points))


def test_robustness_problem_names_the_reference_column():
    rng = random.Random("robustness-problem")
    failures = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        pset = _general_set(rng, n)
        points = [dist.support for dist in pset.extreme_points]
        rule = VotingRule(n, tuple(rng.choice((-1, 1)) for _ in range(2**n)))
        matrix = agreement_matrix_by_atoms(rule.outcomes, points)
        raw = [rng.randint(0, 3) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        weights = [F(v, sum(raw)) for v in raw]
        for strict in (True, False):
            j = failed_column_by_columns(matrix, weights, 0, strict)
            expected = None if j is None else f"weights fail extreme point {j}"
            assert robustness_problem(rule, strict, weights=weights, points=points) == expected
            failures.add(j)
    assert None in failures and len(failures) > 3


def _distributions(rng: random.Random, n: int):
    yield random_distribution(rng, n)
    yield Distribution.degenerate(n, rng.randrange(2**n))
    atoms = rng.sample(range(2**n), min(3, 2**n))
    yield Distribution.from_weights(n, {idx: F(rng.randint(1, 9)) for idx in atoms})


@pytest.mark.parametrize("n", range(1, 7))
def test_responsiveness_matches_the_atom_by_atom_sum(n):
    rng = random.Random(f"responsiveness-{n}")
    for _ in range(8):
        deterministic = VotingRule(n, tuple(rng.choice((-1, 1)) for _ in range(2**n)))
        random_rule = RandomVotingRule(
            n, tuple(rng.choice((F(-1), F(0), F(1), F(1, 3))) for _ in range(2**n)))
        for dist in _distributions(rng, n):
            for rule in (deterministic, random_rule):
                assert responsiveness(rule, dist).values == responsiveness_by_atoms(rule, dist)


def _vote_weights(rng: random.Random, n: int, kind: str):
    if kind == "int":
        return [rng.randint(-9, 9) for _ in range(n)]
    if kind == "zero":
        return [F(0)] * n
    weights = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    return weights if kind == "fraction" else [-abs(w) for w in weights]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["int", "fraction", "zero", "negative"])
def test_doubling_vote_sums_match_the_row_by_row_reference(n, kind):
    rng = random.Random(f"vote-sums-{n}-{kind}")
    for _ in range(1 if n > 9 else 4):
        weights = _vote_weights(rng, n, kind)
        sums, scale = vote_sums(weights)
        assert scale > 0 and all(type(s) is int for s in sums)
        assert [F(s, scale) for s in sums] == vote_sums_by_rows(weights)


def _moved(rng: random.Random, vector):
    """The vector with part or all of one nonzero entry's mass moved to
    another entry, still a distribution; and with that entry negated, no
    longer one."""
    source = rng.choice([k for k, v in enumerate(vector) if v])
    target = rng.choice([k for k in range(len(vector)) if k != source] or [source])
    share = vector[source] * rng.choice((F(1), F(1, 2), F(1, 3)))
    moved = list(vector)
    moved[source] -= share
    moved[target] += share
    negated = list(vector)
    negated[source] = -negated[source]
    return [moved, negated]


def _random_mass(rng: random.Random, size: int):
    raw = [rng.randint(0, 3) * rng.randint(0, 1) for _ in range(size)]
    raw[rng.randrange(size)] += 1
    return [F(v, sum(raw)) for v in raw]


def _point_mass_rules():
    for n in (1, 2, 3):
        for t in range(2 ** 2**n):
            yield table_rule(n, t)
    rng = random.Random("point-mass-rules")
    for n in (4, 5, 6, 7, 8):
        for _ in range(4):
            weights = [rng.randint(0, 12) for _ in range(n)]
            yield weighted_majority_rule(n, weights, tie=rng.choice((-1, 1)))
            yield VotingRule(n, tuple(rng.choice((-1, 1)) for _ in range(2**n)))


def _supports(mixture):
    """A dense mixture as the supports robustness_problem takes: its nonzero
    entries as rationals (scale 1), and as integers over their common
    denominator."""
    atoms = [(k, F(m)) for k, m in enumerate(mixture) if m]
    scale = lcm(*(m.denominator for _, m in atoms))
    return [(atoms, 1), ([(k, int(m * scale)) for k, m in atoms], scale)]


def _check_against_the_dense_check(rule, points, weights, mixtures, messages):
    """robustness_problem against the reference on the agreement matrix, in
    both modes, for every vector, a mixture given by its support; points
    None stands for the point masses."""
    size = len(rule.outcomes)
    supports = [((x, F(1)),) for x in range(size)] if points is None else points
    matrix = agreement_matrix_by_atoms(rule.outcomes, supports)
    for strict in (True, False):
        for ws in weights:
            found = robustness_problem(rule, strict, weights=ws, points=points)
            assert found == robustness_problem_on_matrix(matrix, strict, weights=ws)
            messages.add(found and re.sub(r"\d+", "#", found))
        for mix in mixtures:
            expected = robustness_problem_on_matrix(matrix, strict, mixture=mix)
            for support, scale in _supports(mix):
                assert robustness_problem(rule, strict, mixture=support, points=points,
                                          scale=scale) == expected
            messages.add(expected and re.sub(r"\d+", "#", expected))


def test_point_mass_problem_matches_the_dense_check():
    rng = random.Random("point-mass-problem")
    messages = set()
    for rule in _point_mass_rules():
        weights, mixtures = [_random_mass(rng, rule.n)], [_random_mass(rng, 2**rule.n)]
        for mode in MODES:
            cert = certify_p_robust_full(rule, mode)
            for vectors, vector in ((weights, cert.weights), (mixtures, cert.mixture)):
                if vector is not None:
                    vectors += [list(vector)] + _moved(rng, vector)
        weights += _moved(rng, weights[0])
        mixtures += _moved(rng, mixtures[0])
        _check_against_the_dense_check(rule, None, weights, mixtures, messages)
    assert messages == MESSAGES


@pytest.mark.parametrize("n", range(1, 7))
def test_general_sets_match_the_dense_check(n):
    rng = random.Random(f"general-sets-{n}")
    messages = set()
    for _ in range(40 if n < 5 else 15):
        pset = _general_set(rng, n)
        points = [dist.support for dist in pset.extreme_points]
        rule = VotingRule(n, tuple(rng.choice((-1, 1)) for _ in range(2**n)))
        if rng.random() < 0.5:
            rule = weighted_majority_rule(n, [rng.randint(0, 5) for _ in range(n)], tie=1)
        weights, mixtures = [_random_mass(rng, n)], [_random_mass(rng, len(points))]
        for mode in MODES:
            cert = certify_p_robust(rule, pset, mode)
            for vectors, vector in ((weights, cert.weights), (mixtures, cert.mixture)):
                if vector is not None:
                    vectors += [list(vector)] + _moved(rng, vector)
        weights += _moved(rng, weights[0])
        mixtures += _moved(rng, mixtures[0])
        _check_against_the_dense_check(rule, points, weights, mixtures, messages)
    assert messages == MESSAGES


@pytest.mark.parametrize("n", range(1, 5))
def test_random_rule_outcomes_match_the_dense_check(n):
    rng = random.Random(f"random-outcomes-{n}")
    messages = set()
    for trial in range(60):
        rule = RandomVotingRule(n, tuple(rng.choice((F(-1), F(-1, 2), F(0), F(1, 3), F(1)))
                                         for _ in range(2**n)))
        weights, mixtures = [_random_mass(rng, n)], [_random_mass(rng, 2**n)]
        found, counterexample = certify_random(rule)
        if found is not None:
            total = sum(found.weights)
            weights += [[w / total for w in found.weights]]
        else:
            mixtures += [list(counterexample.probs)] + _moved(rng, counterexample.probs)
        weights += _moved(rng, weights[0])
        mixtures += _moved(rng, mixtures[0])
        points = None
        if trial % 2:
            pset = _general_set(rng, n)
            points = [dist.support for dist in pset.extreme_points]
            mixtures = [_random_mass(rng, len(points))]
            mixtures += _moved(rng, mixtures[0])
        _check_against_the_dense_check(rule, points, weights, mixtures, messages)
    assert messages == MESSAGES


def _dictatorless_rules():
    """Every dictatorless rule at n <= 3, and seeded ones at n = 4..6."""
    rules = [table_rule(n, t) for n in (1, 2, 3) for t in range(2 ** 2**n)]
    rng = random.Random("dictatorless")
    rules += [table_rule(n, rng.getrandbits(2**n)) for n in (4, 5, 6) for _ in range(6)]
    return [rule for rule in rules if is_dictatorship(rule) is None]


def test_net_gains_match_the_fraction_sums():
    rng = random.Random("net-gains")
    for rule in _dictatorless_rules():
        size = 2**rule.n
        utilities = gamma_utilities(rule)
        payoffs, scale = gamma_payoffs(rule)
        assert [[(F(hi, scale), F(lo, scale)) for hi, lo in row] for row in payoffs] == \
            [list(row) for row in utilities]
        reference = net_gains_by_fractions(rule, utilities, [F(1, size)] * size)
        assert net_gains(rule, payoffs, scale, Distribution.uniform(rule.n)) == reference
        assert gamma_counterexample(rule).net_gains == reference
        # Any integer payoffs over any scale and any mixture, not just the construction's.
        scale = rng.randint(1, 9)
        table = [[(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rule.n)]
                 for _ in range(size)]
        shares = [rng.randint(0, 6) for _ in range(size)]
        shares[rng.randrange(size)] += 1
        mixture = Mixture.in_lowest_terms(shares, sum(shares))
        fractions = [[(F(hi, scale), F(lo, scale)) for hi, lo in row] for row in table]
        assert net_gains(rule, table, scale, mixture) == \
            net_gains_by_fractions(rule, fractions, mixture.probs)


def _transport_or_none(dist, rule, dominating):
    try:
        return dict(_transport(dist, rule, dominating).support)
    except NoTransportError:
        return None


def test_transport_matches_the_fraction_sums():
    rng = random.Random("transport")
    outcomes = [F(k, 4) for k in range(-4, 5)]
    for rule in _dictatorless_rules():
        dists = [Distribution.uniform(rule.n), random_distribution(rng, rule.n)]
        for dist in dists:
            # The efficiency witnesses, which dominate the rule weakly.
            for mode in EFFICIENCY_MODES if rule.n <= 4 else ():
                efficient, witness = efficiency_verdict(rule, dist, mode)
                if efficient:
                    continue
                expected = transport_by_atoms(dist, rule, witness)
                assert _transport_or_none(dist, rule, witness) == expected
                if expected is not None:
                    assert dict(transport_distribution(dist, rule, witness).support) == expected
            # And any random rule, dominating or not.
            other = RandomVotingRule(rule.n, tuple(rng.choice(outcomes) for _ in rule.outcomes))
            assert _transport_or_none(dist, rule, other) == transport_by_atoms(dist, rule, other)
