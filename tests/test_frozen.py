"""Every record class is a core.Frozen value: equal only to an equal value of
its own class, hashed alike, shown by a repr that names every field,
pickled and read back whole, and read-only once built."""

import pickle
from fractions import Fraction as F

import pytest

from robustvote.core import (
    DecisionProfile,
    Distribution,
    DistributionSet,
    Frozen,
    Mixture,
    RandomVotingRule,
    VotingRule,
)
from robustvote.efficiency import ParetoVerdict
from robustvote.gamma_mechanism import ExtendedRational, GammaWitness
from robustvote.lp import (
    AlternativeResult,
    FeasibilityResult,
    GameSolution,
    LinearRow,
    LinearSystem,
    SolveStats,
)
from robustvote.respond import ResponsivenessVector, WeightVector
from robustvote.robustness import RobustnessCertificate
from robustvote.wmr import WmrQuery

STATS = SolveStats(3, 5, 1, 4)
STATS_REPR = "SolveStats(rows=3, columns=5, pivots=1, max_bits=4)"

# One value of each record class, built by a function so that two builds
# are equal but not the same object, with its repr as the generated
# dataclass code wrote it.
CASES = {
    "DecisionProfile": (lambda: DecisionProfile(2, 1), "DecisionProfile(n=2, index=1)"),
    "VotingRule": (lambda: VotingRule(1, (-1, 1)), "VotingRule(n=1, table=2)"),
    "RandomVotingRule": (
        lambda: RandomVotingRule(1, (F(-1, 2), 1)),
        "RandomVotingRule(n=1, outcomes=(Fraction(-1, 2), Fraction(1, 1)))"),
    "Mixture": (lambda: Mixture(3, ((0, 1), (2, 1)), 2),
                "Mixture(size=3, masses=((0, 1), (2, 1)), scale=2)"),
    "Distribution": (lambda: Distribution(1, (F(1, 3), F(2, 3))),
                     "Distribution(size=2, masses=((0, 1), (1, 2)), scale=3, n=1)"),
    "DistributionSet": (
        lambda: DistributionSet(1, (Distribution(1, (1, 0)),)),
        "DistributionSet(n=1, extreme_points=(Distribution(size=2, masses=((0, 1),), "
        "scale=1, n=1),))"),
    "LinearRow": (lambda: LinearRow((1, F(1, 2)), ">"),
                  "LinearRow(coeffs=(1, Fraction(1, 2)), relation='>')"),
    "LinearSystem": (lambda: LinearSystem(2, (LinearRow((1, -1), ">="),)),
                     "LinearSystem(num_vars=2, rows=(LinearRow(coeffs=(1, -1), relation='>='),))"),
    "SolveStats": (lambda: SolveStats(3, 5, 1, 4), STATS_REPR),
    "FeasibilityResult": (
        lambda: FeasibilityResult(True, (2, 4), None, STATS),
        f"FeasibilityResult(feasible=True, numerators=(2, 4), scale=1, stats={STATS_REPR})"),
    "AlternativeResult": (
        lambda: AlternativeResult(None, (1, 3)),
        "AlternativeResult(row_side=None, column_side=Mixture(size=2, masses=((0, 1), (1, 3)), "
        "scale=4))"),
    "GameSolution": (
        lambda: GameSolution(F(1, 2), (F(1),), (F(1, 2), F(1, 2)), STATS),
        "GameSolution(value=Fraction(1, 2), row_strategy=(Fraction(1, 1),), "
        f"col_strategy=(Fraction(1, 2), Fraction(1, 2)), stats={STATS_REPR})"),
    "ResponsivenessVector": (lambda: ResponsivenessVector((F(1, 2), 1)),
                             "ResponsivenessVector(values=(Fraction(1, 2), Fraction(1, 1)))"),
    "WeightVector": (
        lambda: WeightVector((1, 2), "nonnegative"),
        "WeightVector(weights=(Fraction(1, 1), Fraction(2, 1)), sign_class='nonnegative')"),
    "RobustnessCertificate": (
        lambda: RobustnessCertificate("not_robust", "weak", mixture=(F(1, 4), 0, F(3, 4))),
        "RobustnessCertificate(verdict='not_robust', mode='weak', weighting=None, "
        "refutation=Mixture(size=3, masses=((0, 1), (2, 3)), scale=4))"),
    "WmrQuery": (lambda: WmrQuery("positive", "forbidden"),
                 "WmrQuery(sign_class='positive', ties='forbidden')"),
    "ParetoVerdict": (lambda: ParetoVerdict("equal", "none", (F(0),)),
                      "ParetoVerdict(relation='equal', direction='none', deltas=(Fraction(0, 1),))"),
    "ExtendedRational": (lambda: ExtendedRational(F(3, 2)),
                         "ExtendedRational(value=Fraction(3, 2))"),
    "GammaWitness": (
        lambda: GammaWitness(1, (((F(1), F(0)),),), (F(1),), (F(0),)),
        "GammaWitness(n=1, utilities=(((Fraction(1, 1), Fraction(0, 1)),),), "
        "mixture=(Fraction(1, 1),), net_gains=(Fraction(0, 1),))"),
}


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {cls.__name__ for cls in subclasses(Frozen)} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_frozen_value(name):
    build, shown = CASES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert repr(value) == shown
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and repr(copy) == shown
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unlisted = None
    assert value == twin


def test_equality_is_within_one_class():
    dist = Distribution(1, (F(1, 3), F(2, 3)))
    mixture = Mixture(dist.size, dist.masses, dist.scale)
    assert dist != mixture and mixture != dist
    assert Mixture(3, ((0, 1),), 1) != Mixture(3, ((1, 1),), 1)


@pytest.mark.parametrize("build", [
    lambda stats: FeasibilityResult(False, None, (1, 1), stats),
    lambda stats: GameSolution(F(1, 2), (F(1),), (F(1),), stats),
])
def test_stats_take_no_part_in_equality(build):
    with_stats, without = build(SolveStats(1, 2, 3, 4)), build(None)
    assert with_stats == without and hash(with_stats) == hash(without)
    assert with_stats.stats != without.stats


def test_a_record_without_checks_takes_every_field_in_order():
    with pytest.raises(TypeError, match="SolveStats takes"):
        SolveStats(3, 5, 1)
    assert SolveStats(3, 5, 1, 4).max_bits == 4
