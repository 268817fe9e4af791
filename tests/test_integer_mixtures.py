"""One integer mixture type: a Distribution and a robustness refutation are
both core.Mixture, integer masses over one scale.  Built from integers or
from Fractions they are the same value, their Fraction views are built on
first read, and the JSON they are read from keeps every message."""

import contextlib
import io
import json
import pickle
import random
from fractions import Fraction as F

import pytest

from robustvote.cli import main
from robustvote.core import Distribution, DistributionSet, FormatError, Mixture, VotingRule
from robustvote.respond import ResponsivenessVector
from robustvote.robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_NOT_ROBUST,
    RobustnessCertificate,
    certify_p_robust,
    certify_p_robust_full,
)
from robustvote.verification import verify_report


def seeded_masses(rng, n):
    """Unreduced integer masses on a random support, shuffled, with their
    total as the scale."""
    size = 2**n
    atoms = rng.sample(range(size), rng.randint(1, min(size, 12)))
    factor = rng.randint(1, 6)
    masses = [(idx, factor * rng.randint(1, 9)) for idx in atoms]
    return masses, sum(m for _, m in masses)


@pytest.mark.parametrize("n", range(1, 8))
def test_integer_and_fraction_built_distributions_are_one_value(n):
    rng = random.Random(f"integer-mixtures-{n}")
    for _ in range(25):
        masses, scale = seeded_masses(rng, n)
        built = Distribution._from_masses(n, masses, scale)
        dense = [F(0)] * 2**n
        for idx, m in masses:
            dense[idx] = F(m, scale)
        by_fractions = Distribution(n, dense)
        by_weights = Distribution.from_weights(n, dict(masses))
        for dist in (by_fractions, by_weights):
            assert dist == built and hash(dist) == hash(built)
            assert dist.masses == built.masses and dist.scale == built.scale
        assert built.support == by_fractions.support
        assert built.probs == by_fractions.probs == tuple(dense)
        text = json.dumps(built.to_json())
        assert text == json.dumps(by_fractions.to_json())
        # The JSON as written unreduced and reordered reads back the same.
        atoms = json.loads(text)["atoms"]
        rng.shuffle(atoms)
        for atom in atoms:
            p = F(atom["prob"])
            atom["prob"] = f"{p.numerator * 4}/{p.denominator * 4}"
        unreduced = Distribution.from_json({"n": n, "atoms": atoms})
        assert unreduced == built and json.dumps(unreduced.to_json()) == text
        assert pickle.loads(pickle.dumps(built)) == built


def test_stored_in_lowest_terms():
    dist = Distribution._from_masses(3, [(6, 4), (1, 0), (2, 12)], 16)
    assert (dist.size, dist.masses, dist.scale, dist.n) == (8, ((2, 3), (6, 1)), 4, 3)
    assert Distribution.uniform(3).masses == tuple((k, 1) for k in range(8))
    assert Distribution.uniform(3).scale == 8
    assert Distribution.degenerate(3, 5).masses == ((5, 1),)
    pset = DistributionSet(2, (Distribution.degenerate(2, 3), Distribution.uniform(2)))
    assert pset.mixture([F(1, 3), F(2, 3)]).masses == ((0, 1), (1, 1), (2, 1), (3, 3))


def test_the_fraction_views_are_built_on_first_read():
    dist = Distribution.from_json({"n": 2, "atoms": [{"profile": "+-", "prob": "1/3"},
                                                     {"profile": "--", "prob": "2/3"}]})
    assert "support" not in vars(dist) and "probs" not in vars(dist)
    assert dist.support == ((0, F(2, 3)), (1, F(1, 3)))
    assert "support" in vars(dist) and "probs" not in vars(dist)
    assert dist.probs == (F(2, 3), F(1, 3), 0, 0)
    assert dist.support is dist.support and dist.probs is dist.probs
    # A refutation's dense view is built off the masses on each read and
    # kept by neither the certificate nor its Mixture, and caches no support.
    refutation = certify_p_robust_full(VotingRule.from_table_string(2, "+--+"), MODE_STRICT)
    assert refutation.verdict == VERDICT_NOT_ROBUST and sum(refutation.mixture) == 1
    assert refutation.mixture == refutation.mixture and refutation.mixture is not refutation.mixture
    assert "probs" not in vars(refutation.refutation)
    assert "support" not in vars(refutation.refutation)
    robust = certify_p_robust_full(VotingRule.from_table_string(1, "-+"), MODE_STRICT)
    assert robust.weights == (1,) and "probs" not in vars(robust.weighting)


@pytest.mark.parametrize(("atoms", "message"), [
    ([("+-", "3/2"), ("--", "-1/2")], "atoms: probabilities must be nonnegative"),
    ([("+-", "1/3"), ("--", "1/3")], "atoms: probabilities must sum to 1, got 2/3"),
    ([("+-", "2/4"), ("--", "6/4")], "atoms: probabilities must sum to 1, got 2"),
    ([], "atoms: probabilities must sum to 1, got 0"),
    ([("+-", "1/2"), ("+-", "1/2")], "atoms[1].profile: duplicate profile '+-'"),
    ([("+-", "1/2"), ("+x", "1/2")], "atoms[1].profile: expected '+'/'-' characters, got '+x'"),
    ([("+-", "1/2"), ("--", "1/0")],
     "atoms[1].prob: expected a rational 'num/den' string, got '1/0'"),
    ([("+-", "1/2"), ("--", "0.5")],
     "atoms[1].prob: expected a rational 'num/den' string, got '0.5'"),
])
def test_every_from_json_message_is_unchanged(atoms, message):
    data = {"n": 2, "atoms": [{"profile": profile, "prob": prob} for profile, prob in atoms]}
    with pytest.raises(FormatError) as caught:
        Distribution.from_json(data)
    assert str(caught.value) == message


def test_dense_mixture_and_support_built_certificates_are_equal():
    pset = DistributionSet(3, (Distribution.uniform(3), Distribution.degenerate(3, 6),
                               Distribution.degenerate(3, 1)))
    certs = [certify_p_robust_full(VotingRule.from_table_string(3, table), mode)
             for table in ("---+-+++", "+-+--+-+", "--------") for mode in (MODE_STRICT, MODE_WEAK)]
    certs += [certify_p_robust(VotingRule.from_table_string(3, "--------"), pset, MODE_STRICT)]
    refutations = [cert for cert in certs if cert.verdict == VERDICT_NOT_ROBUST]
    assert len(refutations) >= 3
    for cert in refutations:
        assert type(cert.refutation) is Mixture
        dense = RobustnessCertificate(cert.verdict, cert.mode, mixture=cert.mixture)
        assert dense == cert and hash(dense) == hash(cert) and dense.to_json() == cert.to_json()
        assert dense.refutation == cert.refutation
        assert pickle.loads(pickle.dumps(cert)) == cert
        assert cert.support == cert.refutation.masses and cert.scale == cert.refutation.scale


def test_responsiveness_keeps_the_fractions_it_is_given():
    values = (F(1, 3), F(2, 3))
    vector = ResponsivenessVector(values)
    assert all(kept is given for kept, given in zip(vector.values, values))
    assert ResponsivenessVector((1, 0)).values == (F(1), F(0))
    with pytest.raises(ValueError, match="outside"):
        ResponsivenessVector((F(4, 3),))


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv) + ["--quiet"])
    return json.loads(out.getvalue())


@pytest.mark.parametrize("mode", ["strict", "plain", "weak"])
def test_a_transport_unreduced_or_reordered_still_verifies(mode):
    report = run_cli(["efficiency", "--rule=-+-+++--", "--dist=uniform", f"--mode={mode}"])
    transport = report["transport"]
    assert transport is not None and len(transport["atoms"]) > 1
    atoms = transport["atoms"]
    reordered = [dict(atom) for atom in reversed(atoms)]
    unreduced = [dict(atom, prob=f"{F(atom['prob']).numerator * 2}/"
                                 f"{F(atom['prob']).denominator * 2}") for atom in atoms]
    for variant in (reordered, unreduced):
        report["transport"]["atoms"] = variant
        assert verify_report(report) == []
    moved = [dict(atom) for atom in atoms]
    moved[0]["prob"] = str(F(atoms[0]["prob"]) + F(atoms[1]["prob"]))
    moved[1]["prob"] = "0/1"
    report["transport"]["atoms"] = moved
    assert verify_report(report) == [
        "efficiency: transport distribution does not match a recomputation"]


@pytest.mark.parametrize(("argv", "field", "problem"), [
    (["respond", "--rule=---+-+++", "--dist=uniform"], "responsiveness",
     "respond: responsiveness does not match a recomputation"),
    (["respond", "--rule=---+-+++", "--dist=uniform"], "minimum",
     "respond: minimum entry is wrong"),
    (["rtf", "--weights=1,2,2", "--dist=uniform"], "value",
     "rtf: value disagrees with the closed form"),
    (["dominance", "--a=---+-+++", "--b=-------+", "--dist=uniform"], "deltas",
     "dominance: deltas do not match a recomputation"),
])
def test_reported_rationals_are_compared_by_value(argv, field, problem):
    report = run_cli(argv)

    def rewrite(change):
        copy = json.loads(json.dumps(report))
        value = copy[field]
        copy[field] = [change(v) for v in value] if isinstance(value, list) else change(value)
        return copy

    assert verify_report(rewrite(lambda v: f"{F(v).numerator * 6}/{F(v).denominator * 6}")) == []
    assert verify_report(rewrite(lambda v: str(F(v) + F(1, 7)))) == [problem]
