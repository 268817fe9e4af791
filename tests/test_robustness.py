"""Robustness certificates over finitely generated distribution sets."""

import itertools
import random
from fractions import Fraction as F

import pytest

from robustvote import (
    Distribution,
    DistributionSet,
    VotingRule,
    agreement_matrix,
    certify_anonymous,
    certify_p_robust,
    certify_p_robust_full,
    constant_rule,
    count_distribution,
    dictatorship_rule,
    enumerate_rules,
    is_anonymous,
    majority_rule,
    parity_rule,
    responsiveness,
    responsiveness_game,
    supermajority_rule,
    unanimity_rule,
    weighted_majority_rule,
)
from robustvote import robustness
from robustvote.certificates import game_problem
from robustvote.robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_NOT_ROBUST,
    VERDICT_ROBUST,
    RobustnessCertificate,
    _orbit,
    is_permutation_invariant,
    permute_distribution,
)

from oracles import (
    game_value_by_supports,
    invariant_under_every_relabeling,
    orbit_average_over_every_relabeling,
)


def _orbit_mixture(pset, index):
    """The uniform mixture over the orbit _orbit finds, over all of pset."""
    orbit = _orbit(pset, index)
    return tuple(F(1, len(orbit)) if k in orbit else F(0) for k in range(len(pset)))


def check_certificate(rule, pset, certificate):
    """Replay the certificate inequalities by hand."""
    matrix = agreement_matrix(rule, pset)
    n = rule.n
    cols = len(pset)
    strict = certificate.mode == MODE_STRICT
    if certificate.verdict == VERDICT_ROBUST:
        w = certificate.weights
        assert all(x >= 0 for x in w) and sum(w) == 1
        for j in range(cols):
            dot = sum((w[i] * matrix[i][j] for i in range(n)), F(0))
            assert dot > 0 if strict else dot >= 0
    else:
        lam = certificate.mixture
        assert all(x >= 0 for x in lam) and sum(lam) == 1
        for i in range(n):
            dot = sum((matrix[i][j] * lam[j] for j in range(cols)), F(0))
            assert dot <= 0 if strict else dot < 0


def relabeling_closure(dists):
    """Every relabeled copy of the given distributions, first seen first."""
    n = dists[0].n
    perms = list(itertools.permutations(range(1, n + 1)))
    return tuple(dict.fromkeys(permute_distribution(d, perm) for d in dists for perm in perms))


def seeded_sets(n, rng):
    """degenerates(n), then seeded sets closed under relabeling (one with a
    count-symmetric member) and seeded sets that are not."""
    yield DistributionSet.degenerates(n)
    for _ in range(3):
        atoms = rng.sample(range(2**n), min(2, 2**n))
        seeds = [Distribution.degenerate(n, rng.randrange(2**n)),
                 Distribution.from_weights(n, {idx: F(rng.randint(1, 5)) for idx in atoms})]
        closed = relabeling_closure(seeds)
        yield DistributionSet(n, closed)
        yield DistributionSet(n, closed + (count_distribution(n, [F(1, n + 1)] * (n + 1)),))
        yield DistributionSet(n, tuple(seeds))
        if len(closed) > 1:
            yield DistributionSet(n, closed[1:])


def anonymous_rules(n):
    """Every rule whose outcome depends only on the number of +1 votes."""
    for by_count in itertools.product((-1, 1), repeat=n + 1):
        yield VotingRule(n, tuple(by_count[bin(x).count("1")] for x in range(2**n)))


class TestAgreementMatrix:
    def test_degenerate_columns_are_signed_votes(self):
        rule = majority_rule(3)
        matrix = agreement_matrix(rule, DistributionSet.degenerates(3))
        for idx in range(8):
            outcome = rule.outcomes[idx]
            for i in range(3):
                vote = 1 if idx >> i & 1 else -1
                assert matrix[i][idx] == outcome * vote

    def test_entries_are_expectations(self):
        rule = unanimity_rule(2)
        pset = DistributionSet(2, (Distribution.uniform(2),))
        matrix = agreement_matrix(rule, pset)
        vector = responsiveness(rule, Distribution.uniform(2))
        for i in range(2):
            assert matrix[i][0] == 2 * vector.values[i] - 1


class TestCertificateShape:
    def test_exactly_one_payload(self):
        with pytest.raises(ValueError):
            RobustnessCertificate(VERDICT_ROBUST, MODE_STRICT)
        with pytest.raises(ValueError):
            RobustnessCertificate(
                VERDICT_ROBUST, MODE_STRICT, weights=(F(1),), mixture=(F(1),)
            )
        with pytest.raises(ValueError):
            RobustnessCertificate("maybe", MODE_STRICT, weights=(F(1),))

    def test_dense_and_support_built_certificates_are_equal(self):
        # A certificate built from a dense mixture, as callers outside the
        # package build one, equals the producer's support-built one in
        # value, hash and JSON; so does a dense tuple of ints.
        pset = DistributionSet(3, (Distribution.uniform(3), Distribution.degenerate(3, 6)))
        certs = [certify_p_robust_full(rule, mode)
                 for rule in enumerate_rules(2) for mode in (MODE_STRICT, MODE_WEAK)]
        certs += [certify_p_robust(majority_rule(3), pset, mode) for mode in (MODE_STRICT, MODE_WEAK)]
        certs += [certify_anonymous(unanimity_rule(3), DistributionSet.degenerates(3))]
        refutations = 0
        for cert in certs:
            dense = RobustnessCertificate(cert.verdict, cert.mode, cert.weights, cert.mixture)
            assert dense == cert and hash(dense) == hash(cert)
            assert dense.to_json() == cert.to_json()
            refutations += cert.mixture is not None
        assert refutations > 5
        size = 8
        screened = certify_p_robust_full(constant_rule(3, 1), MODE_WEAK)
        ints = RobustnessCertificate(VERDICT_NOT_ROBUST, MODE_WEAK, mixture=(1,) + (0,) * 7)
        assert ints == screened and hash(ints) == hash(screened)
        assert ints.mixture == (1,) + (0,) * 7
        uniform = RobustnessCertificate(VERDICT_NOT_ROBUST, MODE_STRICT,
                                        mixture=(F(1, size),) * size)
        assert uniform.support == tuple((k, 1) for k in range(size)) and uniform.scale == size
        assert uniform != RobustnessCertificate(VERDICT_NOT_ROBUST, MODE_WEAK,
                                                mixture=(F(1, size),) * size)

    def test_json_shape(self):
        cert = certify_p_robust_full(majority_rule(3), MODE_STRICT)
        data = cert.to_json()
        assert data["verdict"] == "robust"
        assert data["mode"] == "strict"
        assert data["weights"] == ["1/3", "1/3", "1/3"]
        assert "mixture" not in data


class TestFullRobustness:
    def test_majority_n3(self):
        cert = certify_p_robust_full(majority_rule(3), MODE_STRICT)
        assert cert.verdict == VERDICT_ROBUST
        assert cert.weights == (F(1, 3), F(1, 3), F(1, 3))

    def test_frozen_robust_set_n3(self):
        robust = {
            rule.to_table_string()
            for rule in enumerate_rules(3)
            if certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
        }
        assert robust == {"-+-+-+-+", "--++--++", "----++++", "---+-+++"}

    def test_frozen_robust_set_n2(self):
        robust = {
            rule.to_table_string()
            for rule in enumerate_rules(2)
            if certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
        }
        assert robust == {"-+-+", "--++"}

    def test_weak_counts(self):
        weak2 = sum(
            1
            for rule in enumerate_rules(2)
            if certify_p_robust_full(rule, MODE_WEAK).verdict == VERDICT_ROBUST
        )
        weak3 = sum(
            1
            for rule in enumerate_rules(3)
            if certify_p_robust_full(rule, MODE_WEAK).verdict == VERDICT_ROBUST
        )
        assert weak2 == 4
        assert weak3 == 37

    def test_status_quo_majority_splits_modes(self):
        rule = majority_rule(2, tie=-1)
        strict = certify_p_robust_full(rule, MODE_STRICT)
        assert strict.verdict == VERDICT_NOT_ROBUST
        assert strict.mixture == (F(0), F(1, 2), F(1, 2), F(0))
        weak = certify_p_robust_full(rule, MODE_WEAK)
        assert weak.verdict == VERDICT_ROBUST
        assert weak.weights == (F(1, 2), F(1, 2))

    def test_casting_vote_wmr_n4(self):
        rule = weighted_majority_rule(4, [F(2), F(1), F(1), F(1)])
        assert certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST

    def test_every_certificate_replays(self):
        pset = DistributionSet.degenerates(2)
        for rule in enumerate_rules(2):
            for mode in (MODE_STRICT, MODE_WEAK):
                check_certificate(rule, pset, certify_p_robust_full(rule, mode))


class TestSubsetRobustness:
    def test_two_point_set_allows_a_dictatorial_pick(self):
        rule = majority_rule(3)
        pset = DistributionSet(
            3, (Distribution.degenerate(3, 0b111), Distribution.degenerate(3, 0))
        )
        cert = certify_p_robust(rule, pset)
        assert cert.verdict == VERDICT_ROBUST
        check_certificate(rule, pset, cert)

    def test_one_dissenter_hull_defeats_unanimity(self):
        rule = unanimity_rule(3)
        points = tuple(
            Distribution.degenerate(3, 0b111 ^ (1 << i)) for i in range(3)
        )
        pset = DistributionSet(3, points)
        # Pointwise, the dissenter always agrees with the outcome.
        for i, point in enumerate(points):
            vector = responsiveness(rule, point)
            assert vector.for_individual(i + 1) == 1
        # Over the hull the uniform blend defeats everyone at once.
        uniform = responsiveness(rule, pset.mixture((F(1, 3),) * 3))
        assert uniform.values == (F(1, 3),) * 3
        # The certificate may be any refuting blend, not necessarily that one.
        cert = certify_p_robust(rule, pset)
        assert cert.verdict == VERDICT_NOT_ROBUST
        check_certificate(rule, pset, cert)
        blended = responsiveness(rule, pset.mixture(cert.mixture))
        assert all(value <= F(1, 2) for value in blended.values)

    def test_empty_pset_rejected(self):
        with pytest.raises(ValueError):
            DistributionSet(3, ())


class TestResponsivenessGame:
    def test_majority_value(self):
        game = responsiveness_game(majority_rule(3), DistributionSet.degenerates(3))
        assert game.value == F(2, 3)

    def test_dictator_value_is_one(self):
        game = responsiveness_game(dictatorship_rule(2, 1), DistributionSet.degenerates(2))
        assert game.value == 1

    def test_parity_value_below_half(self):
        assert (
            responsiveness_game(parity_rule(2), DistributionSet.degenerates(2)).value
            < F(1, 2)
        )

    def test_value_matches_support_oracle(self):
        pset3 = DistributionSet.degenerates(3)
        sample = ["---+-+++", "-+-+-+-+", "-------+", "+--+-++-", "++++++++"]
        for table in sample:
            rule = VotingRule.from_table_string(3, table)
            responsive = [
                [(entry + 1) / 2 for entry in row]
                for row in agreement_matrix(rule, pset3)
            ]
            assert responsiveness_game(rule, pset3).value == game_value_by_supports(
                responsive
            )

    def test_point_masses_are_read_off_the_table(self, monkeypatch):
        monkeypatch.setattr(robustness, "agreement_matrix",
                            lambda *args: pytest.fail("agreement_matrix was built"))
        game = responsiveness_game(majority_rule(3), DistributionSet.degenerates(3))
        assert game.value == F(2, 3)

    def test_reordered_point_masses_keep_their_column_order(self):
        # Only the point masses in profile order are read off the table.
        points = DistributionSet.degenerates(3).extreme_points
        pset = DistributionSet(3, points[1:] + points[:1])
        for table in ("---+-+++", "-+++-+--", "-++-+--+"):
            rule = VotingRule.from_table_string(3, table)
            game = responsiveness_game(rule, pset)
            payoffs = [[F(a + 1, 2) for a in row] for row in agreement_matrix(rule, pset)]
            assert game_problem(payoffs, game.value, game.row_strategy,
                                game.col_strategy) is None, table

    def test_a_mismatched_n_is_refused(self):
        with pytest.raises(ValueError, match="rule has n=3 but distribution set has n=4"):
            responsiveness_game(majority_rule(3), DistributionSet.degenerates(4))

    def test_value_characterizes_robustness(self):
        pset = DistributionSet.degenerates(2)
        for rule in enumerate_rules(2):
            value = responsiveness_game(rule, pset).value
            strict = certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
            weak = certify_p_robust_full(rule, MODE_WEAK).verdict == VERDICT_ROBUST
            assert strict == (value > F(1, 2))
            assert weak == (value >= F(1, 2))


class TestPermutationHelpers:
    def test_permute_distribution(self):
        dist = Distribution.degenerate(3, 0b001)
        moved = permute_distribution(dist, (2, 1, 3))
        assert moved.prob(0b010) == 1

    def test_invariance_detection(self):
        degenerates = DistributionSet.degenerates(3)
        assert is_permutation_invariant(degenerates)
        lopsided = DistributionSet(3, (Distribution.degenerate(3, 0b001),))
        assert not is_permutation_invariant(lopsided)

    def test_invariance_check_builds_no_distribution(self, monkeypatch):
        degenerates = DistributionSet.degenerates(5)
        calls = []
        validate = Distribution._set_support
        monkeypatch.setattr(Distribution, "_set_support",
                            lambda dist, *args: calls.append(args) or validate(dist, *args))
        assert is_permutation_invariant(degenerates)
        assert calls == []

    def test_set_missing_an_orbit_member(self):
        # The orbit of 0b011 (two of three approve) lacks 0b110.
        spread = Distribution(3, (F(0), F(0), F(0), F(1, 2), F(0), F(1, 2), F(0), F(0)))
        points = (Distribution.degenerate(3, 0b011), Distribution.degenerate(3, 0b101), spread)
        pset = DistributionSet(3, points)
        assert not is_permutation_invariant(pset)
        for index in range(len(points)):
            with pytest.raises(ValueError, match="orbit member is missing"):
                _orbit_mixture(pset, index)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_agree_with_every_relabeling(self, n):
        # The n! oracle decides closure and averages each orbit; the search
        # along the two generators gives the same verdict and the same
        # mixtures, and raises exactly where a relabeled copy is missing.
        verdicts = set()
        for pset in seeded_sets(n, random.Random(4100 + n)):
            closed = is_permutation_invariant(pset)
            assert closed == invariant_under_every_relabeling(pset)
            verdicts.add(closed)
            for index in range(len(pset)):
                expected = orbit_average_over_every_relabeling(pset, index)
                if expected is None:
                    with pytest.raises(ValueError, match="orbit member is missing"):
                        _orbit_mixture(pset, index)
                else:
                    assert _orbit_mixture(pset, index) == expected
        assert verdicts == ({True} if n == 1 else {True, False})


class TestCertifyAnonymous:
    def test_requires_anonymous_rule(self):
        with pytest.raises(ValueError):
            certify_anonymous(dictatorship_rule(3, 1), DistributionSet.degenerates(3))

    def test_requires_invariant_set(self):
        pset = DistributionSet(3, (Distribution.degenerate(3, 0b001),))
        with pytest.raises(ValueError):
            certify_anonymous(majority_rule(3), pset)

    @pytest.mark.parametrize("n", [5, 6, 7, 12])
    def test_requires_invariant_set_at_every_n(self, n):
        # One individual's lone approval beside unanimous approval: the
        # other lone approvals are missing, above six individuals too.
        pset = DistributionSet(n, (Distribution.degenerate(n, 1),
                                   Distribution.degenerate(n, 2**n - 1)))
        assert not is_permutation_invariant(pset)
        with pytest.raises(ValueError, match="not permutation invariant"):
            certify_anonymous(constant_rule(n, 1), pset)

    def test_positive_verdict_uses_uniform_weights(self):
        cert = certify_anonymous(majority_rule(3), DistributionSet.degenerates(3))
        assert cert.verdict == VERDICT_ROBUST
        assert cert.weights == (F(1, 3), F(1, 3), F(1, 3))

    def test_negative_verdict_points_at_a_count_symmetric_violator(self):
        cert = certify_anonymous(constant_rule(3, 1), DistributionSet.degenerates(3))
        assert cert.verdict == VERDICT_NOT_ROBUST
        # The all-minus point mass disagrees with everyone and is count
        # symmetric, so it certifies alone.
        assert cert.mixture[0] == 1 and sum(cert.mixture) == 1

    def test_orbit_mixture_for_asymmetric_violator(self):
        # Extreme points: the three one-dissenter masses. Each alone is
        # asymmetric; the negative certificate averages the orbit.
        points = tuple(
            Distribution.degenerate(3, 0b111 ^ (1 << i)) for i in range(3)
        )
        pset = DistributionSet(3, points)
        cert = certify_anonymous(unanimity_rule(3), pset)
        assert cert.verdict == VERDICT_NOT_ROBUST
        assert sorted(cert.mixture) == [F(1, 3), F(1, 3), F(1, 3)]
        check_certificate(unanimity_rule(3), pset, cert)

    def test_two_thirds_rule_under_skewed_counts(self):
        probs = [F(0)] * 5 + [F(1, 4), F(0), F(0), F(0), F(3, 4)]
        pset = DistributionSet(9, (count_distribution(9, probs),))
        cert = certify_anonymous(supermajority_rule(9, 6), pset)
        assert cert.verdict == VERDICT_ROBUST
        assert cert.weights == tuple(F(1, 9) for _ in range(9))

    def test_agrees_with_general_path(self):
        assert set(anonymous_rules(3)) == set(enumerate_rules(3, is_anonymous))
        for n in range(3, 8):
            degenerates = DistributionSet.degenerates(n)
            for rule in anonymous_rules(n):
                for mode in (MODE_STRICT, MODE_WEAK):
                    fast = certify_anonymous(rule, degenerates, mode)
                    general = certify_p_robust(rule, degenerates, mode)
                    assert fast.verdict == general.verdict
                    check_certificate(rule, degenerates, fast)

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_WEAK])
    def test_asymmetric_violator_above_six_gets_its_orbit(self, mode):
        # A seeded distribution's orbit at n=7, and the constant rule that
        # opposes its mean vote: the set is one orbit, so the certificate
        # is the uniform mixture over it.
        rng = random.Random(7007)
        n = 7
        base = rng.randrange(2 ** (n - 1))
        seed = Distribution.from_weights(n, {base: F(rng.randint(1, 9)),
                                             base | 2 ** (n - 1): F(rng.randint(1, 9))})
        pset = DistributionSet(n, relabeling_closure([seed]))
        assert len(pset) > 1
        mean_vote = sum(p * (2 * bin(idx).count("1") - n) for idx, p in seed.support)
        assert mean_vote != 0
        rule = constant_rule(n, -1 if mean_vote > 0 else 1)
        cert = certify_anonymous(rule, pset, mode)
        assert cert.verdict == certify_p_robust(rule, pset, mode).verdict == VERDICT_NOT_ROBUST
        assert cert.mixture == tuple(F(1, len(pset)) for _ in pset.extreme_points)
        check_certificate(rule, pset, cert)

    def test_twelve_individuals_need_no_cap(self):
        rule, degenerates = majority_rule(12, tie=1), DistributionSet.degenerates(12)
        assert certify_anonymous(rule, degenerates, MODE_WEAK).verdict == VERDICT_ROBUST
        cert = certify_anonymous(rule, degenerates)
        assert cert.verdict == VERDICT_NOT_ROBUST
        check_certificate(rule, degenerates, cert)
