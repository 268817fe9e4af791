"""Rules as table integers: the mask predicates in `core` against the
profile-by-profile loops they replaced, kept here as the reference, and
the table integer as the stored form of every VotingRule."""

import pickle
import random
from fractions import Fraction as F

import pytest

from robustvote import Distribution, DistributionSet, RandomVotingRule, VotingRule, cli
from robustvote.core import (
    STRUCTURAL_PREDICATES,
    FormatError,
    apply_permutation,
    constant_rule,
    dictatorship_rule,
    inverse_rule,
    is_anonymous,
    is_dictatorship,
    is_own_vote_monotone,
    is_self_dual,
    load_rule,
    majority_rule,
    own_vote_violations,
    parity_rule,
    set_bits,
    supermajority_rule,
    table_integer,
    table_masks,
    table_rule,
    twin_set,
    unanimity_rule,
    vote_in_profile,
    weighted_majority_rule,
)


# ---------------------------------------------------------------------------
# Reference definitions: one profile at a time, straight from the bits.


def reference_outcomes(n, t):
    return tuple(1 if t >> k & 1 else -1 for k in range(2**n))


def reference_rule(n, t):
    return VotingRule(n, reference_outcomes(n, t))


def reference_is_self_dual(rule):
    size = 2**rule.n
    return all(rule.outcomes[x] == -rule.outcomes[(size - 1) ^ x] for x in range(size))


def reference_twin(rule):
    size = 2**rule.n
    return next((x for x in range(size) if rule.outcomes[x] == rule.outcomes[size - 1 - x]),
                None)


def reference_violations(rule):
    for i in range(1, rule.n + 1):
        bit = 1 << (i - 1)
        for base in range(2**rule.n):
            if not base & bit and rule.outcomes[base] == 1 and rule.outcomes[base | bit] == -1:
                yield i, base


def reference_monotone(rule):
    for i, base in reference_violations(rule):
        others = tuple(1 if base >> (j - 1) & 1 else -1 for j in range(1, rule.n + 1) if j != i)
        return False, (i, others)
    return True, None


def reference_anonymous(values):
    by_count = {}
    return all(by_count.setdefault(bin(x).count("1"), v) == v for x, v in enumerate(values))


def reference_dictator(rule):
    for i in range(1, rule.n + 1):
        if all(rule.outcomes[x] == (1 if x >> (i - 1) & 1 else -1) for x in range(2**rule.n)):
            return i
    return None


def assert_predicates_match(n, t):
    rule = table_rule(n, t)
    reference = reference_rule(n, t)
    assert rule == reference
    assert table_integer(rule.outcomes) == t
    assert is_self_dual(rule) == reference_is_self_dual(reference)
    assert next(set_bits(twin_set(n, t)), None) == reference_twin(reference)
    assert list(own_vote_violations(rule)) == list(reference_violations(reference))
    assert is_own_vote_monotone(rule) == reference_monotone(reference)
    assert is_anonymous(rule) == reference_anonymous(reference.outcomes)
    assert is_dictatorship(rule) == reference_dictator(reference)
    structural = {name: test(n, t) for name, test in STRUCTURAL_PREDICATES.items()}
    assert structural == {
        "all": True,
        "anonymous": reference_anonymous(reference.outcomes),
        "monotone": reference_monotone(reference)[0],
        "self_dual": reference_is_self_dual(reference),
        "dictatorship": reference_dictator(reference) is not None,
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_small_rule_matches_the_reference(n):
    for t in range(2 ** 2**n):
        assert_predicates_match(n, t)


def test_every_n4_rule_matches_the_reference():
    for t in range(2**16):
        assert_predicates_match(4, t)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_seeded_larger_rules_match_the_reference(n):
    rng = random.Random(3100 + n)
    for _ in range(100):
        assert_predicates_match(n, rng.getrandbits(2**n))


@pytest.mark.parametrize("n", [12, 16])
def test_set_bits_and_violations_at_large_n(n):
    rng = random.Random(5200 + n)
    for mask in [0, 1 << (2**n - 1), rng.getrandbits(2**n)]:
        assert list(set_bits(mask)) == [k for k in range(2**n) if mask >> k & 1]
    if n == 12:
        t = rng.getrandbits(2**n)
        assert list(own_vote_violations(table_rule(n, t))) == list(
            reference_violations(reference_rule(n, t)))


@pytest.mark.parametrize("n", range(1, 17))
def test_table_rule_round_trip(n):
    rng = random.Random(7000 + n)
    size = 2**n
    for t in [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(4)]:
        rule = table_rule(n, t)
        assert table_integer(rule.outcomes) == t
        if n <= 12:
            assert rule == reference_rule(n, t)
    for bad in (-1, 1 << size):
        with pytest.raises(ValueError):
            table_rule(n, bad)


def test_table_rule_rejects_an_n_out_of_range():
    for bad in (0, 17, 100):
        with pytest.raises(ValueError, match="n must be an integer"):
            table_rule(bad, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_masks_come_from_the_sign_table(n):
    masks = table_masks(n)
    assert masks is table_masks(n)
    assert masks.full == (1 << 2**n) - 1
    assert masks.plus == tuple(table_integer([vote_in_profile(idx, i) for idx in range(2**n)])
                               for i in range(1, n + 1))
    assert masks.steps == tuple((plus, 2**i) for i, plus in enumerate(masks.plus))
    assert sum(masks.counts) == masks.full
    for c, members in enumerate(masks.counts):
        assert list(set_bits(members)) == [x for x in range(2**n) if bin(x).count("1") == c]


def test_random_rules_keep_the_count_symmetry_test():
    rng = random.Random(41)
    values = [F(k, 4) for k in range(-4, 5)]
    for n in (1, 2, 3):
        by_count = [rng.choice(values) for _ in range(n + 1)]
        symmetric = RandomVotingRule(n, tuple(by_count[bin(x).count("1")] for x in range(2**n)))
        assert is_anonymous(symmetric)
        if n > 1:
            broken = list(symmetric.outcomes)
            broken[1] = -broken[1] if broken[1] else F(1)
            assert not is_anonymous(RandomVotingRule(n, tuple(broken)))


# ---------------------------------------------------------------------------
# Distribution validation over the support


@pytest.mark.parametrize(("probs", "message"), [
    ((F(3, 2), F(-1, 2), 0, 0), "probabilities must be nonnegative"),
    ((F(1, 2), 0, 0, 0), "probabilities must sum to 1, got 1/2"),
    ((0, 0, 0, 0), "probabilities must sum to 1, got 0"),
    ((F(1, 2), F(1, 2), F(1, 2), 0), "probabilities must sum to 1, got 3/2"),
    ((F(1, 2), F(1, 2)), "distribution needs 4 probabilities for n=2"),
])
def test_distribution_rejections_keep_their_messages(probs, message):
    with pytest.raises(ValueError) as caught:
        Distribution(2, probs)
    assert str(caught.value) == message


def test_distribution_entries_become_fractions():
    dist = Distribution(2, (0, 1, 0, 0))
    assert all(type(p) is F for p in dist.probs)
    assert dist == Distribution.degenerate(2, 1)
    assert hash(dist) == hash(Distribution.degenerate(2, 1))


def test_distribution_set_dedupes_on_the_support_in_first_order():
    a, b = Distribution.degenerate(2, 3), Distribution.uniform(2)
    c = Distribution(2, (F(1, 2), 0, 0, F(1, 2)))
    pset = DistributionSet(2, (a, b, Distribution(2, (0, 0, 0, 1)), c, b, a))
    assert pset.extreme_points == (a, b, c)
    with pytest.raises(ValueError, match="share the set's n"):
        DistributionSet(2, (a, Distribution.degenerate(3, 0)))


def test_degenerates_are_the_point_masses_in_profile_order():
    for n in (1, 3, 5):
        points = DistributionSet.degenerates(n).extreme_points
        assert [[k for k, p in enumerate(d.probs) if p] for d in points] == [
            [k] for k in range(2**n)]


# ---------------------------------------------------------------------------
# The table integer is a rule's stored form; the outcome tuple is a view


def reference_string(n, t):
    return "".join("+" if t >> k & 1 else "-" for k in range(2**n))


def assert_one_rule(rules, n, t):
    """Each rule is table t on n individuals, by value, by hash, by view
    and through a pickle, which carries only n and the table."""
    first = rules[0]
    for rule in rules:
        assert (rule.n, rule.table) == (n, t)
        assert rule == first and hash(rule) == hash(first)
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule and hash(copy) == hash(rule)
        assert "outcomes" not in vars(copy)
        assert pickle.dumps(rule) == pickle.dumps(first)
        assert rule.outcomes == copy.outcomes == reference_outcomes(n, t)
        assert rule.to_table_string() == reference_string(n, t)


def every_constructor(n, t):
    text = reference_string(n, t)
    return [
        VotingRule(n, reference_outcomes(n, t)),
        VotingRule(n, list(reference_outcomes(n, t))),
        VotingRule.from_table_string(n, text),
        VotingRule.from_json({"n": n, "table": text}),
        load_rule({"n": n, "table": text}),
        table_rule(n, t),
        inverse_rule(table_rule(n, table_masks(n).full ^ t)),
        RandomVotingRule(n, tuple(map(F, reference_outcomes(n, t)))).as_deterministic(),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_constructor_stores_the_same_small_rule(n):
    for t in range(2 ** 2**n):
        assert_one_rule(every_constructor(n, t), n, t)


@pytest.mark.parametrize("n", range(4, 17))
def test_every_constructor_stores_the_same_seeded_rule(n):
    rng = random.Random(9100 + n)
    for t in [0, (1 << 2**n) - 1, rng.getrandbits(2**n)]:
        assert_one_rule(every_constructor(n, t), n, t)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_named_constructors_are_their_tables(n):
    votes = [tuple(1 if x >> i & 1 else -1 for i in range(n)) for x in range(2**n)]

    def by_votes(decide):
        return sum(1 << x for x, v in enumerate(votes) if decide(v))

    weights = list(range(1, n + 1))
    cases = [
        (majority_rule(n, tie=1), by_votes(lambda v: sum(v) >= 0)),
        (weighted_majority_rule(n, weights, tie=-1),
         by_votes(lambda v: sum(w * a for w, a in zip(weights, v)) > 0)),
        (supermajority_rule(n, 2), by_votes(lambda v: v.count(1) >= 2)),
        (unanimity_rule(n), by_votes(lambda v: -1 not in v)),
        (parity_rule(n), by_votes(lambda v: v.count(-1) % 2 == 0)),
        (constant_rule(n, 1), by_votes(lambda v: True)),
        (constant_rule(n, -1), 0),
        (apply_permutation(dictatorship_rule(n, 1), range(n, 0, -1)),
         by_votes(lambda v: v[n - 1] == 1)),
    ]
    cases += [(dictatorship_rule(n, i), by_votes(lambda v, i=i: v[i - 1] == 1))
              for i in range(1, n + 1)]
    for rule, t in cases:
        assert_one_rule([rule, VotingRule(n, rule.outcomes), table_rule(n, t)], n, t)


def test_the_tuple_is_built_only_when_read_at_n16():
    rng = random.Random(9216)
    t = rng.getrandbits(2**16)
    rule = table_rule(16, t)
    assert "outcomes" not in vars(rule)
    text = rule.to_table_string()
    assert "outcomes" not in vars(rule)
    assert text == reference_string(16, t)
    back = VotingRule.from_table_string(16, text)
    assert back.table == t and back.to_table_string() == text
    assert "outcomes" not in vars(back)
    assert rule.outcomes == reference_outcomes(16, t)
    assert vars(rule)["outcomes"] is rule.outcomes


def test_the_given_tuple_is_kept():
    outcomes = (1, -1, -1, 1)
    assert VotingRule(2, outcomes).outcomes is outcomes


@pytest.mark.parametrize(("build", "error", "message"), [
    (lambda: VotingRule(2, (1, -1, 1)), ValueError, "rule needs 4 outcomes for n=2, got 3"),
    (lambda: VotingRule(2, (1, -1, 0, 1)), ValueError, "rule outcomes must all be +1 or -1"),
    (lambda: VotingRule(0, ()), ValueError, "n must be an integer in [1, 16], got 0"),
    (lambda: VotingRule.from_table_string(2, "+-+"), FormatError,
     "table: expected 4 characters of '+'/'-' for n=2, got '+-+'"),
    (lambda: VotingRule.from_table_string(2, "+-x+", "rule"), FormatError,
     "rule: expected 4 characters of '+'/'-' for n=2, got '+-x+'"),
    (lambda: VotingRule.from_json({"n": 2}), FormatError, "table: missing"),
    (lambda: table_rule(2, 16), ValueError, "table integer 16 out of range for n=2"),
    (lambda: table_rule(2, -1), ValueError, "table integer -1 out of range for n=2"),
])
def test_constructor_messages_are_unchanged(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_rules_are_frozen():
    rule = table_rule(2, 5)
    with pytest.raises(AttributeError):
        rule.table = 6


@pytest.mark.parametrize("build", [
    lambda n: majority_rule(n, tie=1),
    lambda n: RandomVotingRule.from_deterministic(majority_rule(n, tie=1)),
    lambda n: Distribution.uniform(n),
])
def test_profile_indices_out_of_range_are_refused(build):
    n = 3
    obj = build(n)
    read = obj.prob if isinstance(obj, Distribution) else obj.outcome
    assert read(0) is not None and read(2**n - 1) is not None
    for bad in (-1, 2**n):
        with pytest.raises(ValueError) as caught:
            read(bad)
        assert str(caught.value) == f"profile index {bad} out of range for n={n}"


def test_enumerate_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as caught:
        cli.main(["enumerate", "--n=2", "--jobs=2"])
    assert caught.value.code == 2
    assert "--jobs" in capsys.readouterr().err
