"""Robustness weights stay integers from the producer to the WeightVector.

A certificate stores its weights as a core.Mixture, coprime integers over
their total, and `detect_wmr` reads its integer direction straight off
it.  The answers and report bytes are pinned by digests taken from the
code that still stored the weights as Fractions, so the integer path must
give the same WeightVectors and the same reports.
"""

import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction as F

import pytest

from robustvote import (
    WmrQuery,
    certify_p_robust_full,
    classify_rule,
    cli,
    detect_wmr,
    lp,
    weighted_majority_rule,
    weights_represent,
)
from robustvote.certificates import SIGN_CLASSES, TIE_MODES
from robustvote.core import Mixture, table_rule
from robustvote.robustness import MODE_STRICT, MODE_WEAK, RobustnessCertificate, _screen

QUERIES = [WmrQuery(sign_class, ties) for sign_class in SIGN_CLASSES for ties in TIE_MODES]

# sha256 of the answers below, taken before the weights were stored as a Mixture.
WMR_DIGEST = "54f5c8466fa5222fc022849c2bfb62764281f1dfba2998c25182fca2fc3f8d77"
REPORT_DIGEST = "8909ab53efae704fee97fd5942c9a3e9788e80b58261bb8c8453bc0788193c1e"


def pinned_rules():
    """Every rule at n <= 3, and at each n = 4..6 four seeded WMRs (weights
    -2..7, so zero and negative weights, ties broken either way) and four
    uniform random tables."""
    rules = [table_rule(n, t) for n in (1, 2, 3) for t in range(2 ** 2**n)]
    rng = random.Random("integer-weights")
    for n in (4, 5, 6):
        for _ in range(4):
            weights = [rng.randint(-2, 7) for _ in range(n)]
            rules.append(weighted_majority_rule(n, weights, tie=rng.choice((-1, 1))))
            rules.append(table_rule(n, rng.getrandbits(2**n)))
    return rules


def wmr_digest() -> str:
    """One line per rule and query: its table, the query and the answer."""
    lines = []
    for rule in pinned_rules():
        for query in QUERIES:
            found = detect_wmr(rule, query)
            answer = None if found is None else found.to_json()
            lines.append(json.dumps([rule.n, rule.to_table_string(), query.sign_class,
                                     query.ties, answer]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report(argv) -> str:
    """The report bytes of one in-process CLI run, its elapsed_ms cut out."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--quiet"])
    return f"{code}\n" + re.sub(r',\n  "elapsed_ms": \d+', "", out.getvalue())


def report_digest() -> str:
    """certify (both modes), every wmr query and classify of each rule."""
    reports = []
    build, parser = cli._build_parser, cli._build_parser()
    cli._build_parser = lambda: parser  # building it is most of a tiny run
    try:
        for rule in pinned_rules():
            table = f"--rule={rule.to_table_string()}"
            reports.append(_report(["certify", table, "--pset=degenerates"]))
            reports.append(_report(["certify", table, "--pset=degenerates", "--weak"]))
            for query in QUERIES:
                reports.append(_report(["wmr", table, f"--signs={query.sign_class}",
                                        f"--ties={query.ties}"]))
            reports.append(_report(["classify", table]))
    finally:
        cli._build_parser = build
    return hashlib.sha256("".join(reports).encode()).hexdigest()


def test_detect_wmr_answers_are_unchanged():
    assert wmr_digest() == WMR_DIGEST


def test_certify_wmr_and_classify_reports_are_unchanged():
    assert report_digest() == REPORT_DIGEST


def screened_wmrs(count: int):
    """Tie-free n = 6 WMRs, weights 1..12 with an odd total, that the
    screen certifies in both modes."""
    rng = random.Random("screened")
    rules = []
    while len(rules) < count:
        weights = [rng.randint(1, 12) for _ in range(6)]
        rule = weighted_majority_rule(6, weights) if sum(weights) % 2 else None
        if rule and all(_screen(rule, mode) is not None for mode in (MODE_STRICT, MODE_WEAK)):
            rules.append(rule)
    return rules


def test_screened_weights_build_no_fraction_before_they_are_read(monkeypatch):
    # Strict and weak certify and the tie-free nonnegative detect_wmr of a
    # screened WMR build only the n Fractions of the returned WeightVector.
    rules = screened_wmrs(20)
    monkeypatch.setattr(lp, "solve_feasibility", None)  # no LP may run
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    certs, found = [], []
    for rule in rules:
        certs += [certify_p_robust_full(rule, mode) for mode in (MODE_STRICT, MODE_WEAK)]
        found.append(detect_wmr(rule, WmrQuery("nonnegative", "forbidden")))
    monkeypatch.undo()
    assert len(built) <= 6 * len(rules)
    assert all(type(cert.weighting) is Mixture and "probs" not in vars(cert.weighting)
               for cert in certs)
    for rule, vector, strict in zip(rules, found, certs[::2]):
        assert vector.weights == tuple(strict.weighting.numerators)
        assert weights_represent(rule, vector.weights, "forbidden")


def test_weights_are_stored_as_a_mixture():
    rules = screened_wmrs(3) + [table_rule(3, 0b11101000), table_rule(2, 0b1010)]
    for rule in rules:
        for mode in (MODE_STRICT, MODE_WEAK):
            cert = certify_p_robust_full(rule, mode)
            weighting = cert.weighting
            assert weighting.scale == sum(m for _, m in weighting.masses)
            assert weighting.probs == cert.weights and sum(cert.weights) == 1
            dense = RobustnessCertificate(cert.verdict, cert.mode, weights=cert.weights)
            assert dense == cert and hash(dense) == hash(cert)
            assert dense.weighting == weighting and dense.to_json() == cert.to_json()
    # Given rationals or ints, the public constructor keeps their values.
    odd = RobustnessCertificate("robust", MODE_WEAK, weights=(2, 0, F(-1, 3)))
    assert odd.weights == (2, 0, F(-1, 3)) and odd.to_json()["weights"] == ["2/1", "0/1", "-1/3"]


@pytest.mark.parametrize("stored", [None, (0, 0, 0)])
def test_a_weightless_answer_is_none_or_an_internal_error(stored):
    # _represented divides by the gcd, so all-zero weights reach the
    # sign-class check and fail it instead of dividing by zero.
    from robustvote.certificates import InternalError
    from robustvote.wmr import _represented

    rule = table_rule(3, 0b11101000)
    query = WmrQuery("nonnegative", "allowed")
    if stored is None:
        assert _represented(rule, None, query) is None
    else:
        with pytest.raises(InternalError):
            _represented(rule, list(stored), query)


def test_classify_reads_the_stiemke_weights_as_integers(monkeypatch):
    # Majority at n = 5: the screen settles both certificates, and the one
    # LP is Stiemke's alternative, whose integers give the positive entry.
    calls = []
    solve = lp.solve_feasibility
    monkeypatch.setattr(lp, "solve_feasibility", lambda system: calls.append(system) or solve(system))
    report = classify_rule(weighted_majority_rule(5, [1] * 5))
    assert len(calls) == 1
    assert report["wmr"]["positive_allowed"]["weights"] == ["1/1"] * 5
