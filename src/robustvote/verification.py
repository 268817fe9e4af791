"""Independent re-checking of emitted reports.

Every command report embeds its inputs next to the certificates and
witnesses backing its verdicts.  This module parses a report, checks its
structure, rebuilds the data each certificate speaks about, and hands the
certificate to the same substitution checks in `certificates` that its
producer ran before emitting it; a failed check becomes a problem string.
Nothing here solves a feasibility problem, so a tampered certificate fails
because the arithmetic it promises does not hold, not because a solver
disagrees.  Robustness certificates and random-rule counterexamples go to
the one check certificates.robustness_problem, which builds no matrix.
Every list of rationals is read by core.rational_list, each distinct
string once per call, with no cache across calls.  Where a check only
compares rationals, it compares integer pairs in lowest terms, and the
point masses of a certify report are recognised in its JSON, with no
Distribution built.

Affirmative claims are re-derived in full.  Claims of nonexistence (no
weight vector, no dominating rule) carry no finite certificate; they are
accepted after structural checks, which is the strongest guarantee a
certificate-only audit can give.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .certificates import (
    MODE_STRICT,
    MODE_WEAK,
    MODES,
    SIGN_CLASS_NONNEGATIVE,
    SIGN_CLASS_POSITIVE,
    SIGN_CLASSES,
    TIE_MODES,
    TIES_ALLOWED,
    TIES_FORBIDDEN,
    VERDICT_NOT_ROBUST,
    VERDICT_ROBUST,
    attains,
    extreme_supports,
    game_problem,
    improves,
    in_sign_class,
    net_gains,
    robustness_problem,
    rtf_maximum,
    sign_pattern_holds,
    weights_represent,
)
from .core import (
    STRUCTURAL_PREDICATES,
    DecisionProfile,
    Distribution,
    DistributionSet,
    FormatError,
    RandomVotingRule,
    VotingRule,
    _json_n,
    degenerate_agreement_matrix,
    enumerate_tables,
    is_anonymous,
    is_dictatorship,
    is_own_vote_monotone,
    lists_point_masses,
    load_rule,
    monotone_tables,
    own_vote_violations,
    parse_rational,
    rational_list,
    rational_parts,
)

# efficiency, gamma_mechanism and respond are imported by the checkers of
# the report kinds that use them, so checking one kind loads only its own.

SCHEMA = "robustvote/1"

CERTIFIED_PREDICATES = ("robust", "weakly_robust")


class Mismatch(Exception):
    """A report field does not survive re-derivation."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _field(data: dict, key: str, context: str):
    if not isinstance(data, dict) or key not in data:
        raise Mismatch(f"{context}: missing field {key!r}")
    return data[key]


def _rational_list(values, field: str, length: int | None = None, make=Fraction) -> list:
    """core.rational_list of a list of rational strings, of length if given."""
    if not isinstance(values, list):
        raise Mismatch(f"{field}: expected a list of rationals")
    if length is not None and len(values) != length:
        raise Mismatch(f"{field}: expected {length} entries, got {len(values)}")
    return rational_list(values, field, make)


def _lowest(numerator: int, denominator: int) -> tuple[int, int]:
    """A rational's integers in lowest terms, as Fraction.as_integer_ratio."""
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


def _check_robustness_certificate(
    rule: VotingRule, pset: DistributionSet | None, mode: str, certificate: dict, context: str
) -> str:
    """Replay one robustness certificate over the extreme points of pset,
    None for the point masses, and return its verdict."""
    points = None if pset is None else extreme_supports(rule, pset)
    count = 2**rule.n if points is None else len(points)
    _expect(mode in MODES, f"{context}: unknown mode {mode!r}")
    verdict = _field(certificate, "verdict", context)
    _expect(
        certificate.get("mode") == mode,
        f"{context}: certificate mode does not match the query",
    )
    if verdict == VERDICT_ROBUST:
        ws = _rational_list(_field(certificate, "weights", context),
                            f"{context}.weights", rule.n)
        found = robustness_problem(rule, mode == MODE_STRICT, ws, points=points)
    elif verdict == VERDICT_NOT_ROBUST:
        # Every entry is parsed; the check reads the nonzero ones, a
        # negative one included.
        mix = _rational_list(_field(certificate, "mixture", context), f"{context}.mixture", count)
        found = robustness_problem(rule, mode == MODE_STRICT,
                                   mixture=[(k, m) for k, m in enumerate(mix) if m], points=points)
    else:
        raise Mismatch(f"{context}: unknown verdict {verdict!r}")
    _expect(found is None, f"{context}: {found}")
    return verdict


def _check_certify(report: dict) -> None:
    inputs = _field(report, "inputs", "certify")
    rule = VotingRule.from_json(_field(inputs, "rule", "certify.inputs"))
    pset_json = _field(inputs, "pset", "certify.inputs")
    # None stands for the point masses in profile order, read off the JSON.
    pset = (None if lists_point_masses(pset_json, rule.n)
            else DistributionSet.from_json(pset_json))
    mode = _field(inputs, "mode", "certify.inputs")
    # The certificate fields sit at the top level of a certify report.
    _check_robustness_certificate(rule, pset, mode, report, "certify")


def _check_classify(report: dict) -> None:
    inputs = _field(report, "inputs", "classify")
    rule = VotingRule.from_json(_field(inputs, "rule", "classify.inputs"))
    inner = _field(report, "report", "classify")
    _expect(inner.get("n") == rule.n and inner.get("table") == rule.to_table_string(),
            "classify: echoed rule does not match the input")

    _expect(inner.get("anonymous") == is_anonymous(rule),
            "classify: anonymity claim is wrong")
    _expect(inner.get("dictator") == is_dictatorship(rule),
            "classify: dictator claim is wrong")
    monotone, _ = is_own_vote_monotone(rule)
    _expect(inner.get("monotone") == monotone,
            "classify: monotonicity claim is wrong")
    if not monotone:
        violation = _field(inner, "monotone_violation", "classify")
        _check_monotone_violation(rule, violation)

    wmr_map = _field(inner, "wmr", "classify")
    _check_wmr_map(wmr_map)
    for key, entry in wmr_map.items():
        if entry is not None:
            sign_class, _, ties = key.rpartition("_")
            _check_representation(rule, entry, sign_class, ties, f"classify.wmr.{key}",
                                  f"classify: representation {key}")

    certificates = _field(inner, "certificates", "classify")
    strict_verdict, weak_verdict = [_check_robustness_certificate(
        rule, None, mode, _field(certificates, key, "classify.certificates"),
        f"classify.certificates.{key}")
        for mode, key in ((MODE_STRICT, "robust"), (MODE_WEAK, "weakly_robust"))]
    robust = inner.get("robust")
    weakly_robust = inner.get("weakly_robust")
    _expect(robust == (strict_verdict == VERDICT_ROBUST),
            "classify: robustness flag disagrees with its certificate")
    _expect(weakly_robust == (weak_verdict == VERDICT_ROBUST),
            "classify: weak robustness flag disagrees with its certificate")
    _expect(not robust or weakly_robust,
            "classify: robust without weakly robust is impossible")
    found_strict = wmr_map[f"{SIGN_CLASS_NONNEGATIVE}_{TIES_FORBIDDEN}"] is not None
    found_weak = wmr_map[f"{SIGN_CLASS_NONNEGATIVE}_{TIES_ALLOWED}"] is not None
    _expect(robust == found_strict,
            "classify: robustness flag disagrees with the tie-free representation")
    _expect(weakly_robust == found_weak,
            "classify: weak robustness flag disagrees with the tie-allowed representation")


def _check_wmr_map(wmr_map) -> None:
    """The six `<sign class>_<ties>` keys, and the implications between
    their verdicts that hold for every rule: a tie-free representation
    allows ties; positive weights are nonnegative and nonnegative ones
    free; and tie-free nonnegative weights stay tie-free when every zero
    weight is raised a little, so they exist iff positive ones do."""
    keys = {f"{sign_class}_{ties}" for sign_class in SIGN_CLASSES for ties in TIE_MODES}
    _expect(isinstance(wmr_map, dict) and set(wmr_map) == keys,
            "classify: the representation keys are not the six sign class and tie pairs")

    def found(sign_class: str, ties: str) -> bool:
        return wmr_map[f"{sign_class}_{ties}"] is not None

    for sign_class in SIGN_CLASSES:
        _expect(found(sign_class, TIES_ALLOWED) or not found(sign_class, TIES_FORBIDDEN),
                f"classify: {sign_class} weights without ties but none with ties")
    for ties in TIE_MODES:
        for wide, narrow in zip(SIGN_CLASSES, SIGN_CLASSES[1:]):
            _expect(found(wide, ties) or not found(narrow, ties),
                    f"classify: {narrow} weights with ties {ties} but no {wide} ones")
    _expect(found(SIGN_CLASS_POSITIVE, TIES_FORBIDDEN)
            == found(SIGN_CLASS_NONNEGATIVE, TIES_FORBIDDEN),
            "classify: tie-free positive and nonnegative weights disagree")


def _check_representation(rule, entry, sign_class, ties, field, label) -> None:
    """Replay one WMR weight payload: its sign class, then every profile."""
    ws = _rational_list(_field(entry, "weights", field), f"{field}.weights", rule.n)
    _expect(entry.get("sign_class") == sign_class, f"{label} declares the wrong sign class")
    _expect(sign_class in SIGN_CLASSES, f"unknown sign class {sign_class!r}")
    _expect(in_sign_class(ws, sign_class), f"{label} weights leave the sign class")
    _expect(weights_represent(rule, ws, ties), f"{label} weights fail a profile")


def _check_monotone_violation(rule: VotingRule, violation: dict) -> None:
    individual = _field(violation, "individual", "monotone_violation")
    others = _field(violation, "others_votes", "monotone_violation")
    _expect(isinstance(individual, int) and 1 <= individual <= rule.n,
            "monotone_violation: individual out of range")
    _expect(isinstance(others, list) and len(others) == rule.n - 1
            and all(v in (-1, 1) for v in others),
            "monotone_violation: malformed companion votes")
    base = DecisionProfile.from_votes(others[:individual - 1] + [-1] + others[individual - 1:])
    _expect((individual, base.index) in own_vote_violations(rule),
            "monotone_violation: the cited profiles do not violate monotonicity")


def _check_respond(report: dict) -> None:
    from .respond import responsiveness

    inputs = _field(report, "inputs", "respond")
    rule = load_rule(_field(inputs, "rule", "respond.inputs"))
    dist = Distribution.from_json(_field(inputs, "dist", "respond.inputs"))
    values = responsiveness(rule, dist).values
    reported = _rational_list(_field(report, "responsiveness", "respond"),
                              "respond.responsiveness", rule.n, _lowest)
    _expect(reported == [v.as_integer_ratio() for v in values],
            "respond: responsiveness does not match a recomputation")
    minimum = rational_parts(_field(report, "minimum", "respond"), "respond.minimum")
    _expect(_lowest(*minimum) == min(values).as_integer_ratio(),
            "respond: minimum entry is wrong")


def _check_rtf(report: dict) -> None:
    from .respond import responsiveness

    inputs = _field(report, "inputs", "rtf")
    ws = _rational_list(_field(inputs, "weights", "rtf.inputs"), "rtf.inputs.weights")
    sign_class = _field(inputs, "sign_class", "rtf.inputs")
    _expect(sign_class in SIGN_CLASSES, f"unknown sign class {sign_class!r}")
    _expect(in_sign_class(ws, sign_class), "rtf: weights leave their declared sign class")
    dist = Distribution.from_json(_field(inputs, "dist", "rtf.inputs"))
    n = dist.n
    _expect(len(ws) == n, "rtf: weight count does not match the distribution")

    closed_form = rtf_maximum(ws, dist)
    value = rational_parts(_field(report, "value", "rtf"), "rtf.value")
    _expect(_lowest(*value) == closed_form.as_integer_ratio(),
            "rtf: value disagrees with the closed form")
    argmax = VotingRule.from_json(_field(report, "argmax", "rtf"))
    _expect(attains(ws, responsiveness(argmax, dist).values, closed_form),
            "rtf: the argmax rule does not attain the value")


def _check_wmr(report: dict) -> None:
    inputs = _field(report, "inputs", "wmr")
    rule = VotingRule.from_json(_field(inputs, "rule", "wmr.inputs"))
    sign_class = _field(inputs, "sign_class", "wmr.inputs")
    ties = _field(inputs, "ties", "wmr.inputs")
    _expect(ties in TIE_MODES, f"wmr: unknown tie mode {ties!r}")
    found = _field(report, "found", "wmr")
    entry = report.get("weights")
    _expect(found == (entry is not None),
            "wmr: found flag disagrees with the weight payload")
    if entry is not None:
        _check_representation(rule, entry, sign_class, ties, "wmr.weights",
                              "wmr: weight payload")


def _check_efficiency(report: dict) -> None:
    from .efficiency import EFFICIENCY_MODES, NoTransportError, _transport
    from .respond import responsiveness

    inputs = _field(report, "inputs", "efficiency")
    rule = VotingRule.from_json(_field(inputs, "rule", "efficiency.inputs"))
    dist = Distribution.from_json(_field(inputs, "dist", "efficiency.inputs"))
    mode = _field(inputs, "mode", "efficiency.inputs")
    _expect(mode in EFFICIENCY_MODES, f"efficiency: unknown mode {mode!r}")
    efficient = _field(report, "efficient", "efficiency")
    witness_json = report.get("witness")
    _expect(efficient == (witness_json is None),
            "efficiency: verdict disagrees with the witness payload")
    if witness_json is None:
        _expect(report.get("transport") is None,
                "efficiency: transport without a witness")
        return
    witness = RandomVotingRule.from_json(witness_json)
    base = responsiveness(rule, dist).values
    new = responsiveness(witness, dist).values
    if mode == "strict":
        _expect(improves(base, new),
                "efficiency: witness drops below the rule somewhere")
        _expect(witness.outcomes != rule.outcomes,
                "efficiency: witness does not differ from the rule")
    elif mode == "plain":
        _expect(improves(base, new, in_total=True),
                "efficiency: witness fails the improvement inequalities")
    else:
        _expect(improves(base, new, strictly=True),
                "efficiency: witness fails the strict improvement")

    # Every mode's check above includes weak domination, the transport's
    # precondition.  The transport is reported exactly when one exists.
    try:
        expected = _transport(dist, rule, witness)
    except NoTransportError:
        expected = None
    transport_json = report.get("transport")
    if transport_json is None:
        _expect(expected is None, "efficiency: transport missing where one exists")
    else:
        _expect(expected is not None, "efficiency: transport reported where none exists")
        _expect(Distribution.from_json(transport_json) == expected,
                "efficiency: transport distribution does not match a recomputation")


def _check_dominance(report: dict) -> None:
    from .efficiency import pareto_compare

    inputs = _field(report, "inputs", "dominance")
    first = load_rule(_field(inputs, "a", "dominance.inputs"))
    second = load_rule(_field(inputs, "b", "dominance.inputs"))
    dist = Distribution.from_json(_field(inputs, "dist", "dominance.inputs"))
    verdict = pareto_compare(first, second, dist)
    _expect(report.get("relation") == verdict.relation,
            "dominance: relation does not match a recomputation")
    _expect(report.get("direction") == verdict.direction,
            "dominance: direction does not match a recomputation")
    deltas = _rational_list(_field(report, "deltas", "dominance"), "dominance.deltas", first.n,
                            _lowest)
    _expect(deltas == [d.as_integer_ratio() for d in verdict.deltas],
            "dominance: deltas do not match a recomputation")


def _check_random_certify(report: dict) -> None:
    inputs = _field(report, "inputs", "random-certify")
    rule = load_rule(_field(inputs, "rule", "random-certify.inputs"))
    if isinstance(rule, VotingRule):
        rule = RandomVotingRule.from_deterministic(rule)
    robust = _field(report, "robust", "random-certify")
    weights_json = report.get("weights")
    counterexample_json = report.get("counterexample")
    _expect(robust == (weights_json is not None),
            "random-certify: verdict disagrees with the weight payload")
    _expect(robust == (counterexample_json is None),
            "random-certify: verdict disagrees with the counterexample payload")
    if robust:
        ws = _rational_list(_field(weights_json, "weights", "random-certify.weights"),
                            "random-certify.weights.weights", rule.n)
        sign_class = _field(weights_json, "sign_class", "random-certify.weights")
        _expect(sign_class in SIGN_CLASSES, f"unknown sign class {sign_class!r}")
        _expect(in_sign_class(ws, sign_class),
                "random-certify: weights leave their declared sign class")
        # Robustness needs nonnegative weights, whatever the report declares.
        _expect(in_sign_class(ws, SIGN_CLASS_NONNEGATIVE),
                "random-certify: robustness weights must be nonnegative")
        _expect(sign_pattern_holds(rule, ws),
                "random-certify: weights fail the outcome sign pattern")
    else:
        cx = Distribution.from_json(counterexample_json)
        if cx.n != rule.n:
            raise ValueError(f"rule has n={rule.n} but distribution has n={cx.n}")
        _expect(robustness_problem(rule, True, mixture=cx.masses,
                                   scale=cx.scale) is None,
                "random-certify: counterexample leaves someone responsive")


def _check_random_dominate(report: dict) -> None:
    from .respond import responsiveness

    inputs = _field(report, "inputs", "random-dominate")
    rule = RandomVotingRule.from_json(_field(inputs, "rule", "random-dominate.inputs"))
    found = _field(report, "found", "random-dominate")
    dominator_json = report.get("dominator")
    dist_json = report.get("distribution")
    _expect(found == (dominator_json is not None) == (dist_json is not None),
            "random-dominate: found flag disagrees with the payload")
    if not found:
        return
    dominator = VotingRule.from_json(dominator_json)
    dist = Distribution.from_json(dist_json)
    base = responsiveness(rule, dist).values
    new = responsiveness(dominator, dist).values
    _expect(improves(base, new, strictly=True),
            "random-dominate: the cited rule does not strictly dominate")


def _check_enumerate(report: dict) -> None:
    inputs = _field(report, "inputs", "enumerate")
    n = _json_n(inputs)
    predicate = _field(inputs, "predicate", "enumerate.inputs")
    count = _field(report, "count", "enumerate")
    _expect(isinstance(count, int) and count >= 0, "enumerate: malformed count")
    tables = report.get("tables")
    if tables is not None:
        _expect(isinstance(tables, list) and len(tables) == count,
                "enumerate: count disagrees with the table list")
        listed, seen = [], set()
        for table in tables:
            t = VotingRule.from_table_string(n, table).table
            _expect(t not in seen, f"enumerate: table {table} listed twice")
            listed.append(t)
            seen.add(t)
    if predicate in STRUCTURAL_PREDICATES:
        matches = (monotone_tables(n) if predicate == "monotone"
                   else list(enumerate_tables(n, STRUCTURAL_PREDICATES[predicate])))
        _expect(count == len(matches), "enumerate: count disagrees with a recount")
        if tables is not None:
            _expect(listed == matches,
                    "enumerate: table list disagrees with a recount")
    elif predicate not in CERTIFIED_PREDICATES:
        raise Mismatch(f"enumerate: unknown predicate {predicate!r}")
    # Certified predicates would need the solver to recount; the structural
    # checks above are all a certificate-only audit can replay.


def _check_epsilon(report: dict) -> None:
    inputs = _field(report, "inputs", "epsilon")
    n = _json_n(inputs)
    upper = parse_rational(_field(report, "upper", "epsilon"), "epsilon.upper")
    _expect(upper == 2**n - 2, "epsilon: upper threshold disagrees with 2^n - 2")

    binding = _field(report, "binding", "epsilon")
    rule = VotingRule.from_json(_field(binding, "rule", "epsilon.binding"))
    _expect(rule.n == n, "epsilon: binding rule has the wrong n")
    value = parse_rational(_field(binding, "value", "epsilon.binding"),
                           "epsilon.binding.value")
    ws = _rational_list(_field(binding, "individual_weights", "epsilon.binding"),
                        "epsilon.binding.individual_weights", n)
    mix = _rational_list(_field(binding, "adversary_mixture", "epsilon.binding"),
                         "epsilon.binding.adversary_mixture", 2**n)
    # The game pays responsiveness, (agreement + 1) / 2, at each point mass,
    # so the value v is the agreement level 2v - 1.
    problem = game_problem(degenerate_agreement_matrix(rule), 2 * value - 1, ws, mix)
    _expect(problem is None, f"epsilon: {problem}")
    _expect(value > Fraction(1, 2), "epsilon: binding rule is not robust at its value")

    lower = _field(report, "lower", "epsilon")
    if value == 1:
        _expect(lower == "inf", "epsilon: lower threshold must be infinite at value 1")
    else:
        parsed = parse_rational(lower, "epsilon.lower")
        _expect(parsed == (2 * value - 1) / (1 - value),
                "epsilon: lower threshold disagrees with the gain ratio")
    # Minimality of the binding rule over all robust rules is a property of
    # the search, not of any finite certificate; the checks above confirm
    # the reported level is exactly attained by a robust rule.


def _check_gamma(report: dict) -> None:
    from .gamma_mechanism import gamma_payoffs

    inputs = _field(report, "inputs", "gamma-witness")
    rule = VotingRule.from_json(_field(inputs, "rule", "gamma-witness.inputs"))
    _expect(is_dictatorship(rule) is None,
            "gamma-witness: the construction requires a dictatorless rule")
    witness = _field(report, "witness", "gamma-witness")
    _expect(witness.get("n") == rule.n, "gamma-witness: witness has the wrong n")
    size = 2**rule.n

    raw = _field(witness, "utilities", "gamma-witness")
    _expect(isinstance(raw, list) and len(raw) == size,
            "gamma-witness: utility table has the wrong height")
    n = rule.n
    # C-level passes over the rows and their pairs; the scan names a bad row.
    pairs = list(chain.from_iterable(raw)) if all(map(list.__instancecheck__, raw)) else [0]
    shaped = all(map(list.__instancecheck__, pairs)) and (
        {*map(len, raw)}, {*map(len, pairs)}) == ({n}, {2})
    rows = size if shaped else [isinstance(row, list) and len(row) == n and all(
        isinstance(pair, list) and len(pair) == 2 for pair in row) for row in raw].index(False)
    # Every entry above the first malformed row is read, in lowest terms,
    # before that row or a mismatch is reported, so a malformed entry is
    # named wherever it sits.
    read = rational_list([v for row in raw[:rows] for pair in row for v in pair],
                         lambda k: f"utilities[{k // (2 * n)}][{k // 2 % n}][{k % 2}]", _lowest)
    _expect(rows == size, f"gamma-witness: malformed utility row {rows}")
    expected, scale = gamma_payoffs(rule)
    flat = [v for pairs in expected for pair in pairs for v in pair]
    _expect(read == list(map({v: _lowest(v, scale) for v in set(flat)}.get, flat)),
            "gamma-witness: utility table does not match the construction")

    mixture = _rational_list(_field(witness, "mixture", "gamma-witness"),
                             "gamma-witness.mixture", size, _lowest)
    _expect(mixture == [(1, size)] * size, "gamma-witness: mixture is not uniform over states")

    # The table and the mixture are the construction's, by value, so the
    # net gains are recomputed from its integers.
    gains = _rational_list(_field(witness, "net_gains", "gamma-witness"),
                           "gamma-witness.net_gains", rule.n, _lowest)
    uniform = Distribution.uniform(rule.n)
    for i, (total, claimed) in enumerate(zip(net_gains(rule, expected, scale, uniform), gains), 1):
        _expect(claimed == total.as_integer_ratio(),
                f"gamma-witness: net gain for individual {i} is wrong")
        _expect(claimed[0] <= 0, f"gamma-witness: individual {i} would gain from the rule")


_CHECKS = {
    "classify": _check_classify,
    "certify": _check_certify,
    "respond": _check_respond,
    "rtf": _check_rtf,
    "wmr": _check_wmr,
    "efficiency": _check_efficiency,
    "dominance": _check_dominance,
    "random-certify": _check_random_certify,
    "random-dominate": _check_random_dominate,
    "enumerate": _check_enumerate,
    "epsilon": _check_epsilon,
    "gamma-witness": _check_gamma,
}


def verify_report(report) -> list[str]:
    """Re-derive every checkable claim in a report.

    Returns the list of problems found, empty when everything holds.  Any
    structural damage (missing fields, malformed rationals) is reported as
    a problem rather than raised.
    """
    if not isinstance(report, dict):
        return ["report: expected a JSON object"]
    if report.get("schema") != SCHEMA:
        return [f"schema: expected {SCHEMA!r}, got {report.get('schema')!r}"]
    command = report.get("command")
    if command == "verify":
        return ["verify reports carry no certificate to re-check"]
    check = _CHECKS.get(command) if isinstance(command, str) else None
    if check is None:
        return [f"command: unknown report kind {command!r}"]
    try:
        check(report)
    except Mismatch as exc:
        return [str(exc)]
    except FormatError as exc:
        return [str(exc)]
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        return [f"{command}: malformed report: {exc}"]
    return []
