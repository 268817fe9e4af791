"""Command-line front end.

One subcommand per analysis, JSON on stdout, a one-line human summary on
stderr unless --quiet, and deterministic exit codes: 0 for an affirmative
verdict, 1 for a negative one, 2 for usage or malformed input, 3 for an
internal error such as a certificate that failed its own check.  Every
report embeds its inputs and certificates so `verify` can re-check it
later without re-running any search.  Every subcommand runs in this one
process: `enumerate` walks the table integers and writes a table string
only for those that pass.

Rule arguments accept either a path to a JSON file or, for deterministic
rules, a bare truth table such as ---+-+++ (profiles in ascending index
order, individual i on bit i-1).  A table starting with '-' must be
attached to its flag, as in --rule=---+-+++, so it is not read as an
option; this includes the two-character table --, which some argparse
releases would otherwise swallow as the option terminator.
Distribution arguments accept a path or the literal `uniform`;
extreme-point set arguments accept a path or the literal `degenerates`
for the full family of point masses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import partial

from .certificates import (
    MODE_STRICT,
    MODE_WEAK,
    SIGN_CLASS_FREE,
    SIGN_CLASS_NONNEGATIVE,
    SIGN_CLASS_POSITIVE,
    TIES_ALLOWED,
    TIES_FORBIDDEN,
    VERDICT_ROBUST,
    InternalError,
)
from .core import (
    MAX_ENUMERATION_INDIVIDUALS,
    STRUCTURAL_PREDICATES,
    Distribution,
    DistributionSet,
    FormatError,
    RandomVotingRule,
    VotingRule,
    enumerate_tables,
    format_rational,
    load_rule,
    monotone_tables,
    rational_list,
    table_rule,
)
from .verification import CERTIFIED_PREDICATES, SCHEMA, verify_report

# The analysis modules are imported by the handlers that use them, so a
# process loads only what its subcommand needs: `verify` never solves.

_TABLE_RE = re.compile(r"[+-]+")

_SIGN_ALIASES = {
    "free": SIGN_CLASS_FREE,
    "nonneg": SIGN_CLASS_NONNEGATIVE,
    "nonnegative": SIGN_CLASS_NONNEGATIVE,
    "positive": SIGN_CLASS_POSITIVE,
}

_TIE_ALIASES = {
    "allowed": TIES_ALLOWED,
    "none": TIES_FORBIDDEN,
    "forbidden": TIES_FORBIDDEN,
}


# `enumerate`'s predicates: core's structural tests and robustness.is_robust_table.
PREDICATES = sorted([*STRUCTURAL_PREDICATES, *CERTIFIED_PREDICATES])


# ---------------------------------------------------------------------------
# Argument loading


def _read_json(path: str, what: str):
    try:
        if path == "-":  # as bytes: a text stdin may let undecodable bytes through
            return json.loads(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"{what}: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: {path!r} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what}: {path!r} is not UTF-8 text: {exc}") from exc


def _load_any_rule(value: str, what: str) -> VotingRule | RandomVotingRule:
    if _TABLE_RE.fullmatch(value):
        size = len(value)
        n = size.bit_length() - 1
        if n < 1 or 2**n != size:
            raise FormatError(f"{what}: table length {size} is not 2^n for any n >= 1")
        return VotingRule.from_table_string(n, value)
    return load_rule(_read_json(value, what))


def _load_deterministic(value: str, what: str) -> VotingRule:
    rule = _load_any_rule(value, what)
    if not isinstance(rule, VotingRule):
        raise FormatError(f"{what}: expected a deterministic rule (string table)")
    return rule


def _load_random(value: str, what: str) -> RandomVotingRule:
    rule = _load_any_rule(value, what)
    if isinstance(rule, VotingRule):
        return RandomVotingRule.from_deterministic(rule)
    return rule


def _load_dist(value: str, what: str, n: int) -> Distribution:
    if value == "uniform":
        return Distribution.uniform(n)
    return Distribution.from_json(_read_json(value, what))


def _load_pset(value: str, what: str, n: int) -> DistributionSet:
    if value == "degenerates":
        return DistributionSet.degenerates(n)
    return DistributionSet.from_json(_read_json(value, what))


def _parse_weights(text: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or parts == [""]:
        raise FormatError("weights: expected a comma-separated list of rationals")
    return rational_list(parts, "weights", Fraction)


def _alias(aliases: dict, value: str, what: str) -> str:
    """The sign class or tie mode a flag value names."""
    if value not in aliases:
        raise FormatError(f"{what}: expected one of {sorted(set(aliases))}, got {value!r}")
    return aliases[value]


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(format_rational(v) for v in values) + ")"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (inputs, payload, exit code, summary)


def _cmd_classify(args):
    from .wmr import classify_rule

    rule = _load_deterministic(args.rule, "rule")
    report = classify_rule(rule)
    traits = [
        name
        for name, flag in (
            ("anonymous", report["anonymous"]),
            ("monotone", report["monotone"]),
            ("robust", report["robust"]),
            ("weakly robust", report["weakly_robust"]),
        )
        if flag
    ]
    summary = f"rule {rule.to_table_string()}: " + (", ".join(traits) or "none of the named traits")
    if report["dictator"] is not None:
        summary += f"; dictator {report['dictator']}"
    return {"rule": rule.to_json()}, {"report": report}, 0, summary


def _cmd_certify(args):
    from .robustness import certify_p_robust

    rule = _load_deterministic(args.rule, "rule")
    pset = _load_pset(args.pset, "pset", rule.n)
    mode = MODE_WEAK if args.weak else MODE_STRICT
    certificate = certify_p_robust(rule, pset, mode)
    payload = dict(certificate.to_json())
    payload["verified"] = True
    if certificate.verdict == VERDICT_ROBUST:
        code = 0
        summary = (
            f"robust ({mode}): weights {_fmt_tuple(certificate.weights)} "
            "clear every extreme point"
        )
    else:
        code = 1
        summary = (
            f"not robust ({mode}): a mixture of extreme points holds every "
            "individual down"
        )
    inputs = {"rule": rule.to_json(), "pset": pset.to_json(), "mode": mode}
    return inputs, payload, code, summary


def _cmd_respond(args):
    from .respond import responsiveness

    rule = _load_any_rule(args.rule, "rule")
    dist = _load_dist(args.dist, "dist", rule.n)
    vector = responsiveness(rule, dist)
    payload = {
        "responsiveness": vector.to_json(),
        "minimum": format_rational(vector.minimum()),
    }
    summary = (
        f"responsiveness {_fmt_tuple(vector.values)}, "
        f"minimum {format_rational(vector.minimum())}"
    )
    return {"rule": rule.to_json(), "dist": dist.to_json()}, payload, 0, summary


def _cmd_rtf(args):
    from .respond import WeightVector, rtf_max_weighted

    weights = _parse_weights(args.weights)
    sign_class = _alias(_SIGN_ALIASES, args.signs, "signs")
    vector = WeightVector(tuple(weights), sign_class)
    dist = _load_dist(args.dist, "dist", len(weights))
    value, argmax = rtf_max_weighted(vector, dist)
    inputs = {
        "weights": [format_rational(w) for w in weights],
        "sign_class": sign_class,
        "dist": dist.to_json(),
    }
    payload = {"value": format_rational(value), "argmax": argmax.to_json()}
    summary = (
        f"maximum weighted responsiveness {format_rational(value)} "
        f"attained by {argmax.to_table_string()}"
    )
    return inputs, payload, 0, summary


def _cmd_wmr(args):
    from .wmr import WmrQuery, detect_wmr

    rule = _load_deterministic(args.rule, "rule")
    sign_class = _alias(_SIGN_ALIASES, args.signs, "signs")
    ties = _alias(_TIE_ALIASES, args.ties, "ties")
    found = detect_wmr(rule, WmrQuery(sign_class, ties))
    inputs = {"rule": rule.to_json(), "sign_class": sign_class, "ties": ties}
    payload = {
        "found": found is not None,
        "weights": found.to_json() if found is not None else None,
    }
    if found is not None:
        summary = f"weights {_fmt_tuple(found.weights)} represent the rule"
        return inputs, payload, 0, summary
    return inputs, payload, 1, f"no {sign_class} weights with ties {ties} represent the rule"


def _cmd_efficiency(args):
    from .efficiency import (
        EFFICIENCY_MODES,
        NoTransportError,
        efficiency_verdict,
        transport_distribution,
    )

    rule = _load_deterministic(args.rule, "rule")
    dist = _load_dist(args.dist, "dist", rule.n)
    if args.mode not in EFFICIENCY_MODES:
        raise FormatError(f"mode: expected one of {EFFICIENCY_MODES}, got {args.mode!r}")
    efficient, witness = efficiency_verdict(rule, dist, args.mode)
    transport = None
    if witness is not None:
        try:
            transport = transport_distribution(dist, rule, witness)
        except NoTransportError:
            transport = None
    inputs = {"rule": rule.to_json(), "dist": dist.to_json(), "mode": args.mode}
    payload = {
        "efficient": efficient,
        "witness": witness.to_json() if witness is not None else None,
        "transport": transport.to_json() if transport is not None else None,
    }
    label = {"strict": "strictly efficient", "plain": "efficient", "weak": "weakly efficient"}
    if efficient:
        return inputs, payload, 0, f"{label[args.mode]} under the given distribution"
    return inputs, payload, 1, f"not {label[args.mode]}: a random rule does at least as well"


def _cmd_dominance(args):
    from .efficiency import pareto_compare

    first = _load_any_rule(args.a, "a")
    second = _load_any_rule(args.b, "b")
    dist = _load_dist(args.dist, "dist", first.n)
    verdict = pareto_compare(first, second, dist)
    inputs = {"a": first.to_json(), "b": second.to_json(), "dist": dist.to_json()}
    payload = verdict.to_json()
    affirmative = verdict.relation == "equal" or (
        verdict.relation in ("preferred", "strictly_preferred")
        and verdict.direction == "first_over_second"
    )
    summary = f"relation {verdict.relation}"
    if verdict.direction != "none":
        summary += f" ({verdict.direction})"
    return inputs, payload, 0 if affirmative else 1, summary


def _cmd_random_certify(args):
    from .random_rules import certify_random

    rule = _load_random(args.rule, "rule")
    weights, counterexample = certify_random(rule)
    inputs = {"rule": rule.to_json()}
    payload = {
        "robust": weights is not None,
        "weights": weights.to_json() if weights is not None else None,
        "counterexample": counterexample.to_json() if counterexample is not None else None,
    }
    if weights is not None:
        return inputs, payload, 0, (
            f"robust: weights {_fmt_tuple(weights.weights)} sign-match the "
            "expected outcome everywhere"
        )
    return inputs, payload, 1, (
        "not robust: the embedded distribution holds every individual at or "
        "below one half"
    )


def _cmd_random_dominate(args):
    from .random_rules import find_dominating_deterministic

    rule = _load_random(args.rule, "rule")
    found = find_dominating_deterministic(rule)
    inputs = {"rule": rule.to_json()}
    if found is None:
        payload = {"found": False, "dominator": None, "distribution": None}
        return inputs, payload, 1, "no deterministic rule strictly dominates"
    dominator, dist = found
    payload = {
        "found": True,
        "dominator": dominator.to_json(),
        "distribution": dist.to_json(),
    }
    summary = (
        f"dominated by {dominator.to_table_string()} under the embedded distribution"
    )
    return inputs, payload, 0, summary


def _cmd_enumerate(args):
    if args.predicate not in PREDICATES:
        raise FormatError(
            f"predicate: expected one of {PREDICATES}, got {args.predicate!r}"
        )
    n = args.n
    if not 1 <= n <= MAX_ENUMERATION_INDIVIDUALS:
        raise FormatError(
            f"n: exhaustive enumeration is limited to 1 <= n <= {MAX_ENUMERATION_INDIVIDUALS}"
        )
    total = 2 ** (2**n)
    test = STRUCTURAL_PREDICATES.get(args.predicate)
    if test is None:
        from .robustness import is_robust_table
        test = partial(is_robust_table,
                       mode=MODE_STRICT if args.predicate == "robust" else MODE_WEAK)
    matches = (monotone_tables(n) if args.predicate == "monotone"  # built, not searched
               else enumerate_tables(n, test))
    tables = [table_rule(n, t).to_table_string() for t in matches]
    inputs = {"n": n, "predicate": args.predicate}
    payload: dict = {"count": len(tables)}
    if not args.count:
        payload["tables"] = tables
    summary = f"{len(tables)} of {total} rules on n={n} satisfy {args.predicate}"
    return inputs, payload, 0, summary


def _cmd_epsilon(args):
    from .gamma_mechanism import epsilon_lower_witness, epsilon_upper

    level, rule, game = epsilon_lower_witness(args.n)
    upper = epsilon_upper(args.n)
    inputs = {"n": args.n}
    payload = {
        "lower": level.format(),
        "upper": format_rational(upper),
        "binding": {
            "rule": rule.to_json(),
            "value": format_rational(game.value),
            "individual_weights": [format_rational(w) for w in game.row_strategy],
            "adversary_mixture": [format_rational(m) for m in game.col_strategy],
        },
    }
    summary = f"thresholds for n={args.n}: lower {level.format()}, upper {format_rational(upper)}"
    return inputs, payload, 0, summary


def _cmd_gamma_witness(args):
    from .gamma_mechanism import gamma_counterexample

    rule = _load_deterministic(args.rule, "rule")
    witness = gamma_counterexample(rule)
    inputs = {"rule": rule.to_json()}
    payload = {"witness": witness.to_json()}
    summary = (
        "no individual gains from the rule over its inverse: net gains "
        f"{_fmt_tuple(witness.net_gains)}"
    )
    return inputs, payload, 0, summary


def _cmd_verify(args):
    report = _read_json(args.report, "report")
    problems = verify_report(report)
    target = report.get("command") if isinstance(report, dict) else None
    inputs = {"report": args.report}
    payload = {"target": target, "ok": not problems, "problems": problems}
    if problems:
        return inputs, payload, 1, f"{len(problems)} problem(s): {problems[0]}"
    return inputs, payload, 0, "report re-checks clean"


# ---------------------------------------------------------------------------
# Parser


# Each subcommand's handler, help line and flags, in --help order; every
# subcommand takes --quiet before its own flags.
_RULE = ("--rule", dict(required=True, help="rule file or truth table"))
_RANDOM_RULE = ("--rule", dict(required=True, help="random rule file or truth table"))
_DIST = ("--dist", dict(required=True, help="distribution file, or the literal 'uniform'"))
_N = ("--n", dict(type=int, required=True, help="number of individuals"))

_SUBCOMMANDS = {
    "classify": (_cmd_classify,
                 "full report: structural traits plus robustness certificates", [_RULE]),
    "certify": (_cmd_certify, "robustness over a finitely generated set of distributions", [
        _RULE,
        ("--pset", dict(required=True,
                        help="extreme-point set file, or the literal 'degenerates'")),
        ("--weak", dict(action="store_true",
                        help="require responsiveness at least one half instead of above it")),
    ]),
    "respond": (_cmd_respond, "responsiveness of a rule under a distribution", [_RULE, _DIST]),
    "rtf": (_cmd_rtf, "maximum weighted responsiveness over all rules", [
        ("--weights", dict(required=True,
                           help="comma-separated rationals, one per individual")),
        ("--signs", dict(default="free",
                         help="sign class of the weights: free, nonneg, or positive")),
        _DIST,
    ]),
    "wmr": (_cmd_wmr, "weighted majority representation search", [
        _RULE,
        ("--signs", dict(default="nonneg", help="weight sign class: free, nonneg, or positive")),
        ("--ties", dict(default="allowed",
                        help="tie handling: allowed, or none to forbid zero sums")),
    ]),
    "efficiency": (_cmd_efficiency, "efficiency of a rule against all random rules", [
        _RULE, _DIST,
        ("--mode", dict(default="strict", help="notion to decide: strict, plain, or weak")),
    ]),
    "dominance": (_cmd_dominance,
                  "componentwise comparison of two rules under a distribution", [
        ("--a", dict(required=True, help="first rule file or truth table")),
        ("--b", dict(required=True, help="second rule file or truth table")),
        _DIST,
    ]),
    "random-certify": (_cmd_random_certify, "distribution-free robustness of a random rule",
                       [_RANDOM_RULE]),
    "random-dominate": (_cmd_random_dominate,
                        "search for a deterministic rule beating a random one", [_RANDOM_RULE]),
    "enumerate": (_cmd_enumerate, "enumerate rules satisfying a predicate", [
        _N,
        ("--predicate", dict(default="all", help="one of " + ", ".join(PREDICATES))),
        ("--count", dict(action="store_true",
                         help="emit the count only, omitting the table list")),
    ]),
    "epsilon": (_cmd_epsilon,
                "heterogeneity thresholds with the binding rule's game certificate", [_N]),
    "gamma-witness": (_cmd_gamma_witness,
                      "utility mixture under which a dictatorless rule never pays", [_RULE]),
    "verify": (_cmd_verify, "re-check a previously emitted report without any solving", [
        ("--report", dict(required=True, help="report file, or - for stdin")),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustvote", description=(
        "Exact analysis of binary collective choice rules: responsiveness, robustness "
        "certificates, weighted majority detection, efficiency, and the heterogeneity "
        "thresholds. All output is JSON on stdout; summaries go to stderr."))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, flags) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--quiet", action="store_true", help="suppress the stderr summary line")
        for flag, options in flags:
            cmd.add_argument(flag, **options)
    return parser


# Some argparse releases drop an attached value that is exactly "--"
# (reading it as the option terminator), which breaks --rule=-- for the
# n=1 all-minus table.  Hide the value behind a sentinel around parsing.
_DOUBLE_DASH_SENTINEL = "\x00--"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = [
        token[:-2] + _DOUBLE_DASH_SENTINEL
        if token.startswith("--") and token.endswith("=--")
        else token
        for token in argv
    ]
    args = parser.parse_args(argv)
    for key, value in vars(args).items():
        if value == _DOUBLE_DASH_SENTINEL:
            setattr(args, key, "--")
    started = time.monotonic()
    try:
        inputs, payload, code, summary = args.handler(args)
    except ValueError as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect, never a verdict: it must not share exit code 1.
        detail = str(exc) if isinstance(exc, InternalError) else f"{type(exc).__name__}: {exc}"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    report = {"schema": SCHEMA, "command": args.subcommand, "inputs": inputs}
    report.update(payload)
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not args.quiet:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
