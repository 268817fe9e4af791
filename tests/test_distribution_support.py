"""A distribution is its support: what is stored, how every constructor
validates it, a guard that no point-mass path builds a dense table, and
relabeling and agreement columns computed off the support."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from robustvote import cli, epsilon_lower_witness, lp
from robustvote.core import (
    Distribution,
    DistributionSet,
    FormatError,
    VotingRule,
    constant_rule,
    lists_point_masses,
    permute_profile_index,
    weighted_majority_rule,
)
from robustvote.robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_NOT_ROBUST,
    agreement_matrix,
    certify_anonymous,
    certify_p_robust,
    certify_p_robust_full,
    degenerate_agreement_matrix,
    is_permutation_invariant,
    permute_distribution,
    responsiveness_game,
)
from robustvote.verification import verify_report


def run_cli(capsys, argv):
    code = cli.main(argv + ["--quiet"])
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# Representation


def test_a_distribution_stores_its_n_and_its_ascending_support():
    dist = Distribution(2, (F(1, 2), 0, 0, F(1, 2)))
    assert list(Distribution._fields) == [
        "size", "masses", "scale", "n"]
    assert (dist.size, dist.masses, dist.scale, dist.n) == (4, ((0, 1), (3, 1)), 2, 2)
    assert dist.support == ((0, F(1, 2)), (3, F(1, 2)))
    assert Distribution.from_weights(2, {3: 1, 0: 1}).support == dist.support


def test_the_dense_table_is_built_on_first_read():
    dist = Distribution.from_weights(3, {6: F(1), 1: F(3)})
    assert "probs" not in vars(dist)
    assert dist.probs == (0, F(3, 4), 0, 0, 0, 0, F(1, 4), 0)
    assert all(type(p) is F for p in dist.probs)
    assert "probs" in vars(dist)
    assert dist == Distribution(3, dist.probs)
    assert hash(dist) == hash(Distribution(3, dist.probs))


def test_sparse_reads_match_the_dense_table():
    dist = Distribution(2, (F(1, 6), 0, F(1, 3), F(1, 2)))
    values = (F(5), F(-7), F(2, 3), F(1, 9))
    assert dist.expectation(values) == sum(p * v for p, v in zip(dist.probs, values))
    assert not dist.is_strictly_positive()
    assert Distribution.uniform(2).is_strictly_positive()
    with pytest.raises(ValueError, match="value table length"):
        dist.expectation(values[:3])


def test_a_mixture_drops_the_atoms_it_zeroes():
    pset = DistributionSet(2, (Distribution.degenerate(2, 3), Distribution.uniform(2)))
    assert pset.mixture([F(1), F(0)]).support == ((3, F(1)),)
    assert pset.mixture([F(1, 2), F(1, 2)]).support == (
        (0, F(1, 8)), (1, F(1, 8)), (2, F(1, 8)), (3, F(5, 8)))


# ---------------------------------------------------------------------------
# Profile indices are range-checked by every sparse constructor


def test_degenerate_rejects_a_negative_index():
    with pytest.raises(ValueError, match=r"^profile index -1 out of range for n=2$"):
        Distribution.degenerate(2, -1)


def test_degenerate_rejects_an_index_past_the_table():
    with pytest.raises(ValueError, match=r"^profile index 4 out of range for n=2$"):
        Distribution.degenerate(2, 4)


def test_from_weights_rejects_a_negative_index():
    with pytest.raises(ValueError, match=r"^profile index -1 out of range for n=2$"):
        Distribution.from_weights(2, {-1: F(1), 0: F(1)})


def test_sparse_constructors_keep_the_dense_messages():
    with pytest.raises(ValueError, match="^probabilities must be nonnegative$"):
        Distribution.from_weights(2, {0: F(2), 1: F(-1)})
    bad_sum = {"n": 1, "atoms": [{"profile": "+", "prob": "1/2"}]}
    with pytest.raises(FormatError, match="^atoms: probabilities must sum to 1, got 1/2$"):
        Distribution.from_json(bad_sum)


@pytest.mark.parametrize(("profile", "message"), [
    ("+x-", r"^atoms\[1\]\.profile: expected '\+'/'-' characters, got '\+x-'$"),
    ("1-0", r"^atoms\[1\]\.profile: expected '\+'/'-' characters, got '1-0'$"),
    ("-+ ", r"^atoms\[1\]\.profile: expected '\+'/'-' characters, got '-\+ '$"),
    ("++", r"^atoms\[1\]\.profile: expected 3 characters of '\+'/'-', got '\+\+'$"),
    ("++++", r"^atoms\[1\]\.profile: expected 3 characters of '\+'/'-', got '\+\+\+\+'$"),
    (7, r"^atoms\[1\]\.profile: expected 3 characters of '\+'/'-', got 7$"),
])
def test_from_json_names_a_malformed_profile(profile, message):
    data = {"n": 3, "atoms": [{"profile": "+--", "prob": "1/2"},
                              {"profile": profile, "prob": "1/2"}]}
    with pytest.raises(FormatError, match=message):
        Distribution.from_json(data)


def test_from_json_reads_individual_one_as_the_lowest_bit():
    for n in (1, 3, 5):
        for idx in range(2**n):
            dist = Distribution.degenerate(n, idx)
            assert Distribution.from_json(dist.to_json()) == dist


def test_the_point_masses_are_recognised_as_to_json_writes_them():
    for n in range(1, 7):
        data = DistributionSet.degenerates(n).to_json()
        assert lists_point_masses(data, n)
        assert not lists_point_masses(data, n + 1)
        data["extreme_points"].pop()
        assert not lists_point_masses(data, n)


@pytest.mark.parametrize("first", ["0/1", "1/2", "1/1"])
def test_from_json_rejects_any_repeated_profile(first):
    data = {"n": 2, "atoms": [{"profile": "++", "prob": first},
                              {"profile": "++", "prob": "1/1"}]}
    with pytest.raises(FormatError, match=r"^atoms\[1\]\.profile: duplicate profile '\+\+'$"):
        Distribution.from_json(data)


# ---------------------------------------------------------------------------
# Guard: no point-mass path builds a dense table


@pytest.fixture
def dense_point_masses(monkeypatch):
    """The point masses whose dense table is read while the test runs."""
    built = []
    dense = Distribution.probs.func

    def spy(dist):
        if len(dist.support) == 1:
            built.append(dist)
        return dense(dist)

    monkeypatch.setattr(Distribution, "probs", property(spy))
    return built


def test_the_guard_sees_a_dense_read(dense_point_masses):
    assert Distribution.degenerate(3, 5).prob(5) == 1
    assert dense_point_masses == [Distribution.degenerate(3, 5)]


def test_degenerates_and_their_json_stay_sparse(dense_point_masses):
    pset = DistributionSet.degenerates(6)
    assert DistributionSet.from_json(pset.to_json()) == pset
    assert [d.support for d in pset.extreme_points] == [((k, 1),) for k in range(64)]
    assert dense_point_masses == []


@pytest.mark.parametrize("mode", [MODE_STRICT, MODE_WEAK])
def test_point_mass_questions_stay_sparse(dense_point_masses, mode):
    pset = DistributionSet.degenerates(5)
    for rule in (weighted_majority_rule(5, [F(1)] * 5), VotingRule(5, (1, -1) * 16)):
        assert certify_p_robust(rule, pset, mode) == certify_p_robust_full(rule, mode)
    responsiveness_game(weighted_majority_rule(5, [F(1)] * 5), pset)
    assert dense_point_masses == []


def test_epsilon_witness_stays_sparse(dense_point_masses):
    epsilon_lower_witness(4)
    assert dense_point_masses == []


@pytest.mark.parametrize(("n", "weights"), [(7, [1] * 7), (12, [2] + [1] * 11)])
def test_cli_degenerates_report_and_its_verify_stay_sparse(capsys, dense_point_masses,
                                                           n, weights):
    rule = weighted_majority_rule(n, [F(w) for w in weights])
    code, report = run_cli(
        capsys, ["certify", "--rule=" + rule.to_table_string(), "--pset=degenerates"])
    assert code == 0
    assert len(report["inputs"]["pset"]["extreme_points"]) == 2**n
    assert verify_report(report) == []
    assert dense_point_masses == []


# ---------------------------------------------------------------------------
# Relabeling moves the support; point-mass columns stay integer


def dense_permutation(dist, permutation):
    """permute_distribution as the dense table it is defined by."""
    n = dist.n
    return Distribution(n, tuple(dist.probs[permute_profile_index(idx, n, permutation)]
                                 for idx in range(2**n)))


def seeded_distributions(n, rng):
    size = 2**n
    yield Distribution.degenerate(n, rng.randrange(size))
    yield Distribution.degenerate(n, size - 1)
    yield Distribution.uniform(n)
    for _ in range(4):
        atoms = rng.sample(range(size), rng.randint(2, size))
        yield Distribution.from_weights(n, {idx: F(rng.randint(1, 9)) for idx in atoms})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permute_distribution_matches_the_dense_definition(n):
    rng = random.Random(8000 + n)
    for dist in seeded_distributions(n, rng):
        for perm in itertools.permutations(range(1, n + 1)):
            assert permute_distribution(dist, perm) == dense_permutation(dist, perm)


def test_permute_distribution_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        permute_distribution(Distribution.uniform(3), (1, 1, 3))


def test_relabeling_point_masses_stays_sparse(dense_point_masses):
    assert is_permutation_invariant(DistributionSet.degenerates(4))
    assert dense_point_masses == []


@pytest.mark.parametrize("mode", [MODE_STRICT, MODE_WEAK])
def test_negative_anonymous_verdict_stays_sparse(dense_point_masses, mode):
    # The all-minus point mass violates and is fixed by every relabeling;
    # its orbit mixture is read off supports alone.
    cert = certify_anonymous(constant_rule(5, 1), DistributionSet.degenerates(5), mode)
    assert cert.verdict == VERDICT_NOT_ROBUST
    assert cert.mixture[0] == 1
    assert dense_point_masses == []


def test_point_mass_columns_are_integer(monkeypatch):
    payoffs = []
    solve = lp.matrix_game
    monkeypatch.setattr(lp, "matrix_game",
                        lambda matrix: payoffs.extend(matrix) or solve(matrix))
    rule = weighted_majority_rule(3, [F(3), F(1), F(1)])
    mixed = Distribution.from_weights(3, {0: F(1), 5: F(2)})
    pset = DistributionSet(3, (Distribution.degenerate(3, 6), mixed))
    matrix = agreement_matrix(rule, pset)
    points = degenerate_agreement_matrix(rule)
    assert [type(row[0]) for row in matrix] == [int] * 3
    assert [row[0] for row in matrix] == [row[6] for row in points]
    assert all(type(row[1]) is F for row in matrix)
    responsiveness_game(rule, pset)
    assert payoffs and all(type(v) is F for row in payoffs for v in row)
