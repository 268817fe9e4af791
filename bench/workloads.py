"""The benchmark's three seeded workloads: inputs, ops and the output gate.

Each workload is a list of ops that one caller runs in order, waiting for
each result (a closed loop with one client, one process, no threads).
The library receives only the inputs generated here from the seed.

solve   Producing certificates at n = 6: strict and weak robustness over
        all point masses and a tie-free nonnegative WMR search per rule.
        Three rules in four are weighted majority rules, so robust; one
        in four is a uniformly random table.  Dense Fraction pivoting in
        `lp` dominates.
sweep   Many tiny decisions at n = 4: a uniform sample of the 65536
        tables plus all 168 own-vote-monotone rules; one op decides one
        rule, strict and weak, and solves the responsiveness game for the
        robust ones.  Per-call overhead dominates.
replay  Checking, not solving: reports emitted through the CLI at
        n = 3..7, some with one rational tampered, are parsed and re-checked
        by `verify_report`.  No solver runs.

The gate re-checks every result by substitution with the benchmark's own
integer arithmetic, never with the library's checkers, and compares
strict verdicts with ground truth that needs no solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from json import loads  # bound here so that a traced run can time it alone
from math import lcm
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from robustvote import cli
from robustvote.core import (
    DistributionSet,
    RandomVotingRule,
    VotingRule,
    weighted_majority_rule,
)
from robustvote.robustness import certify_p_robust_full, responsiveness_game
from robustvote.verification import verify_report
from robustvote.wmr import WmrQuery, detect_wmr

STRICT = "strict"
WEAK = "weak"
ROBUST = "robust"


@dataclass
class Op:
    kind: str
    item: int  # index of the input this op works on
    run: Callable[[], object]


@dataclass
class Record:
    op: int  # index into Workload.ops
    result: object
    error: str | None
    wall_s: float
    ref_ms: float  # the same interval in reference milliseconds
    repeat: bool = False  # a later pass: compared with the first pass, result dropped


@dataclass
class Workload:
    name: str
    n: str
    ops: list[Op]
    trace_ops: int  # a traced run times ops[:trace_ops] untraced, then traced
    rules: list[tuple[int, ...]]  # deterministic input tables, for input shares
    gate: Callable[[list[Record]], list[tuple[int, str]]]
    view: Callable[[int, object], object]  # canonical form of ops[k]'s result, for the digest
    # Strict robustness verdict per index of rules, from the results or
    # from the reports' own claims.
    verdicts: Callable[[list[Record]], dict[int, bool]]
    # Writes the reports timed through fresh CLI processes into a directory.
    cli_reports: Callable[[Path], list[Path]]
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exact arithmetic of the gate, independent of the library


def _votes(n: int) -> list[tuple[int, ...]]:
    """Profile k as individual votes: individual i votes +1 iff bit i of k."""
    return [tuple(1 if k >> i & 1 else -1 for i in range(n)) for k in range(2**n)]


def _scaled(values) -> tuple[list[int], int]:
    """Integers over one common denominator."""
    fractions = [Fraction(v) for v in values]
    denom = lcm(*(f.denominator for f in fractions)) if fractions else 1
    return [int(f * denom) for f in fractions], denom


def _is_distribution(values) -> bool:
    ints, denom = _scaled(values)
    return all(v >= 0 for v in ints) and sum(ints) == denom


def certificate_problem(table, cert, mode: str) -> str | None:
    """Replay a robustness certificate over all point masses by substitution.

    The column for the point mass at profile x is phi(x) * x.  Weights
    must clear every column (strictly in strict mode); a mixture must hold
    every individual at or below zero (below zero in weak mode).
    """
    n = len(table).bit_length() - 1
    votes = _votes(n)
    if cert.mode != mode:
        return f"certificate mode {cert.mode} for a {mode} query"
    if cert.verdict == ROBUST:
        if cert.weights is None or len(cert.weights) != n:
            return "robust verdict without n weights"
        if not _is_distribution(cert.weights):
            return "weights are not a distribution"
        ws, _ = _scaled(cert.weights)
        for phi, x in zip(table, votes):
            dot = phi * sum(w * v for w, v in zip(ws, x))
            if dot < 0 or (dot == 0 and mode == STRICT):
                return "weights fail a point mass"
        return None
    if cert.mixture is None or len(cert.mixture) != 2**n:
        return "not-robust verdict without a mixture over 2^n point masses"
    if not _is_distribution(cert.mixture):
        return "mixture is not a distribution"
    lam, _ = _scaled(cert.mixture)
    for i in range(n):
        dot = sum(l * phi * x[i] for l, phi, x in zip(lam, table, votes) if l)
        if dot > 0 or (dot == 0 and mode == WEAK):
            return f"mixture leaves individual {i + 1} responsive"
    return None


def represents(table, weights) -> bool:
    """The weighted vote sum sides with every outcome and never ties."""
    ws, _ = _scaled(weights)
    return all(phi * sum(w * v for w, v in zip(ws, x)) > 0
               for phi, x in zip(table, _votes(len(ws))))


def game_problem(table, game) -> str | None:
    """Replay the responsiveness game over all point masses: payoff to
    individual i at profile x is (phi(x) x_i + 1) / 2."""
    n = len(table).bit_length() - 1
    votes = _votes(n)
    if len(game.row_strategy) != n or len(game.col_strategy) != 2**n:
        return "game strategies have the wrong length"
    if not (_is_distribution(game.row_strategy) and _is_distribution(game.col_strategy)):
        return "game strategies are not distributions"
    value = Fraction(game.value)
    for phi, x in zip(table, votes):
        got = sum((w * Fraction(phi * x[i] + 1, 2) for i, w in enumerate(game.row_strategy)),
                  Fraction(0))
        if got < value:
            return "row strategy falls below the value"
    for i in range(n):
        got = sum((m * Fraction(phi * x[i] + 1, 2)
                   for m, phi, x in zip(game.col_strategy, table, votes)), Fraction(0))
        if got > value:
            return "column strategy exceeds the value"
    if not value > Fraction(1, 2):
        return "game value of a robust rule is not above one half"
    return None


def is_self_dual(table) -> bool:
    size = len(table)
    return all(table[k] == -table[size - 1 - k] for k in range(size))


def is_monotone(table) -> bool:
    n = len(table).bit_length() - 1
    return all(
        not (table[k] == 1 and table[k | 1 << i] == -1)
        for i in range(n)
        for k in range(len(table))
        if not k >> i & 1
    )


def monotone_tables(n: int) -> list[tuple[int, ...]]:
    """Every nondecreasing +-1 function of n votes, i.e. every own-vote-
    monotone table: f on n votes is (f0, f1) with f0 <= f1 pointwise."""
    tables = [(-1,), (1,)]
    for _ in range(n):
        tables = [
            low + high
            for low in tables
            for high in tables
            if all(a <= b for a, b in zip(low, high))
        ]
    return tables


def _odd_weights(rng: random.Random, n: int) -> list[int]:
    """Integer weights in 1..2n with an odd total, so that no profile ties."""
    while True:
        w = [rng.randint(1, 2 * n) for _ in range(n)]
        if sum(w) % 2:
            return w


def _wmr_table(weights) -> tuple[int, ...]:
    n = len(weights)
    return tuple(1 if sum(w * v for w, v in zip(weights, x)) > 0 else -1 for x in _votes(n))


def robust_n4_oracle() -> set[tuple[int, ...]]:
    """The strict-robust rules on n = 4: tie-free WMRs with integer weights
    in 0..7 and an odd total (an odd total never sums to zero)."""
    return {
        _wmr_table(w)
        for w in itertools.product(range(8), repeat=4)
        if sum(w) % 2
    }


def _cert_view(cert) -> list:
    vector = cert.weights if cert.weights is not None else cert.mixture
    return [cert.verdict, [str(v) for v in vector]]


def digest(views) -> str:
    text = json.dumps(views, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_string(table) -> str:
    return "".join("+" if v == 1 else "-" for v in table)


def emit(argv: list[str]) -> str:
    """One report through the in-process CLI, which exits 0 on an
    affirmative verdict and 1 on a negative one."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--quiet"])
    if code not in (0, 1):
        raise RuntimeError(f"robustvote {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_reports(directory: Path, texts: list[str], prefix: str) -> list[Path]:
    paths = []
    for k, text in enumerate(texts):
        path = directory / f"{prefix}-{k}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def _verdicts_from(records: list[Record], ops: list[Op], pick) -> dict[int, bool]:
    verdicts: dict[int, bool] = {}
    for rec in records:
        cert = pick(ops[rec.op], rec.result) if rec.error is None and not rec.repeat else None
        if cert is not None:
            verdicts.setdefault(ops[rec.op].item, cert.verdict == ROBUST)
    return verdicts


# ---------------------------------------------------------------------------
# solve


def _certify_strict(rule):
    return certify_p_robust_full(rule, STRICT)


def _certify_weak(rule):
    return certify_p_robust_full(rule, WEAK)


def _detect(rule):
    return detect_wmr(rule, WmrQuery("nonnegative", "forbidden"))


SOLVE_KINDS = (("certify_strict", _certify_strict), ("certify_weak", _certify_weak),
               ("detect_wmr", _detect))


def build_solve(seed: int, step: Callable[[], None], n: int = 6, rules: int = 130,
                trace_rules: int = 40, cli_rules: int = 4) -> Workload:
    rng = random.Random(f"solve-{seed}")
    tables, weights, ops = [], [], []
    for r in range(rules):
        if r % 4 == 3:
            bits = rng.getrandbits(2**n)
            rule = VotingRule(n, tuple(1 if bits >> k & 1 else -1 for k in range(2**n)))
            weights.append(None)
        else:
            w = _odd_weights(rng, n)
            rule = weighted_majority_rule(n, w)
            weights.append(w)
        tables.append(rule.outcomes)
        ops.extend(Op(kind, r, partial(call, rule)) for kind, call in SOLVE_KINDS)
        step()

    def verdicts(records):
        return _verdicts_from(
            records, ops, lambda op, result: result if op.kind == "certify_strict" else None)

    def gate(records: list[Record]) -> list[tuple[int, str]]:
        problems = []
        strict_robust = verdicts(records)
        for pos, rec in enumerate(records):
            op = ops[rec.op]
            table, is_wmr = tables[op.item], weights[op.item] is not None
            if rec.error is not None:
                problems.append((pos, rec.error))
                continue
            if op.kind == "detect_wmr":
                found = rec.result
                if found is not None and not (
                    all(w >= 0 for w in found.weights) and represents(table, found.weights)
                ):
                    problems.append((pos, "detect_wmr weights do not represent the rule"))
                elif is_wmr and found is None:
                    problems.append((pos, "detect_wmr found no weights for a WMR"))
                elif op.item in strict_robust and strict_robust[op.item] != (found is not None):
                    problems.append((pos, "detect_wmr disagrees with the strict certificate"))
                continue
            mode = STRICT if op.kind == "certify_strict" else WEAK
            problem = certificate_problem(table, rec.result, mode)
            if problem is None and is_wmr and rec.result.verdict != ROBUST:
                problem = f"tie-free WMR certified not robust ({mode})"
            if problem is None and mode == WEAK and strict_robust.get(op.item) \
                    and rec.result.verdict != ROBUST:
                problem = "strictly robust rule certified not weakly robust"
            if problem is not None:
                problems.append((pos, problem))
        return problems

    def view(k: int, result) -> object:
        if ops[k].kind == "detect_wmr":
            return None if result is None else [str(w) for w in result.weights]
        return _cert_view(result)

    def cli_reports(directory: Path) -> list[Path]:
        # A WMR search report is small to check; a certify report embeds
        # all 2^n point masses and is not.
        wmrs = [t for t, w in zip(tables, weights) if w is not None][:cli_rules]
        texts = [emit(["wmr", "--rule=" + table_string(t), "--ties=none"]) for t in wmrs]
        return write_reports(directory, texts, "solve")

    return Workload(
        name="solve", n=str(n), ops=ops,
        trace_ops=3 * min(trace_rules, rules), rules=tables, gate=gate, view=view,
        verdicts=verdicts, cli_reports=cli_reports,
        notes={"wmr_rules": sum(w is not None for w in weights),
               "random_rules": sum(w is None for w in weights)},
    )


# ---------------------------------------------------------------------------
# sweep


def _decide(rule, degenerates):
    strict = certify_p_robust_full(rule, STRICT)
    weak = certify_p_robust_full(rule, WEAK)
    game = responsiveness_game(rule, degenerates) if strict.verdict == ROBUST else None
    return strict, weak, game


def build_sweep(seed: int, step: Callable[[], None], uniform: int = 1000,
                trace_rules: int = 400, cli_rules: int = 10) -> Workload:
    n = 4
    rng = random.Random(f"sweep-{seed}")
    monotone = monotone_tables(n)
    step()
    oracle = robust_n4_oracle()
    step()
    if len(monotone) != 168 or len(oracle) != 12 or not oracle <= set(monotone):
        raise RuntimeError("the n = 4 ground truth does not have its known shape")
    known = set(monotone)
    sample = []
    for t in rng.sample(range(2 ** 2**n), uniform + len(known)):
        table = tuple(1 if t >> k & 1 else -1 for k in range(2**n))
        if table not in known and len(sample) < uniform:
            sample.append(table)
    tables = sample + monotone
    rng.shuffle(tables)
    step()
    degenerates = DistributionSet.degenerates(n)
    ops = [Op("decide", r, partial(_decide, VotingRule(n, t), degenerates))
           for r, t in enumerate(tables)]

    def verdicts(records):
        return _verdicts_from(records, ops, lambda op, result: result[0])

    def gate(records: list[Record]) -> list[tuple[int, str]]:
        problems = []
        robust_seen = set()
        for pos, rec in enumerate(records):
            if rec.error is not None:
                problems.append((pos, rec.error))
                continue
            table = tables[ops[rec.op].item]
            strict, weak, game = rec.result
            problem = (certificate_problem(table, strict, STRICT)
                       or certificate_problem(table, weak, WEAK))
            robust = strict.verdict == ROBUST
            if problem is None and robust != (table in oracle):
                problem = "strict verdict disagrees with the n = 4 WMR oracle"
            if problem is None and robust and weak.verdict != ROBUST:
                problem = "strictly robust rule certified not weakly robust"
            if problem is None and (game is None) == robust:
                problem = "game solved for a non-robust rule or missing for a robust one"
            if problem is None and game is not None:
                problem = game_problem(table, game)
            if problem is not None:
                problems.append((pos, problem))
            elif robust:
                robust_seen.add(table)
        if len({rec.op for rec in records}) == len(ops) and robust_seen != oracle:
            problems.append((len(records) - 1, "robust set differs from the 12-rule oracle"))
        return problems

    def view(k: int, result) -> object:
        strict, weak, game = result
        out = [_cert_view(strict), _cert_view(weak)]
        if game is not None:
            out.append([str(game.value), [str(v) for v in game.row_strategy],
                        [str(v) for v in game.col_strategy]])
        return out

    def cli_reports(directory: Path) -> list[Path]:
        texts = [emit(["certify", "--rule=" + table_string(t), "--pset=degenerates"])
                 for t in tables[:cli_rules]]
        return write_reports(directory, texts, "sweep")

    return Workload(
        name="sweep", n=str(n), ops=ops, trace_ops=min(trace_rules, len(ops)),
        rules=tables, gate=gate, view=view, verdicts=verdicts, cli_reports=cli_reports,
        notes={"monotone_rules": len(monotone), "uniform_rules": len(sample)},
    )


# ---------------------------------------------------------------------------
# replay

# Fields that verify compares with an exact recomputation: a tampered copy
# raises one of their rationals by one.
EXACT_SITES = {
    "respond": ("responsiveness",),
    "rtf": ("value",),
    "dominance": ("deltas",),
    "gamma-witness": ("witness", "net_gains"),
    "epsilon": ("upper",),
}
# Distributions named by a report field, as opposed to certificate vectors.
ATOM_SITES = {"random-certify": "counterexample", "random-dominate": "distribution",
              "efficiency": "transport"}
TAMPER_TRIES = 64  # mass moves tried on one distribution before it is left untampered
RECOUNTABLE = ("all", "anonymous", "monotone", "self_dual", "dictatorship")
CLI_MAX_N = 4  # reports up to this n are also checked through fresh CLI processes


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _table(text: str) -> tuple[int, ...]:
    return tuple(1 if c == "+" else -1 for c in text)


def _outcomes(rule: dict) -> list[Fraction]:
    """Expected outcome per profile of a deterministic or random rule."""
    table = rule["table"]
    return [Fraction(v) for v in (_table(table) if isinstance(table, str) else table)]


def _dense(dist: dict) -> list[Fraction]:
    probs = [Fraction(0)] * 2 ** dist["n"]
    for atom in dist["atoms"]:
        index = sum(1 << i for i, c in enumerate(atom["profile"]) if c == "+")
        probs[index] = Fraction(atom["prob"])
    return probs


def _atoms(n: int, probs: list[Fraction]) -> dict:
    return {"n": n, "atoms": [
        {"profile": "".join("+" if k >> i & 1 else "-" for i in range(n)), "prob": str(p)}
        for k, p in enumerate(probs) if p
    ]}


def _lean(outcomes, probs, i: int) -> Fraction:
    """Sum of p(x) phi(x) x_i: twice individual i's responsiveness, minus one."""
    votes = _votes(len(outcomes).bit_length() - 1)
    return sum((p * phi * x[i] for p, phi, x in zip(probs, outcomes, votes) if p), Fraction(0))


def distribution_site(report: dict):
    """The certificate distribution that a tampered copy changes, or None.

    Returns its path in the report, its entries as a dense vector, and the
    benchmark's own substitution check: a function true for a vector that
    the report's claim does not survive.
    """
    command, inputs = report["command"], report["inputs"]
    if command in ("certify", "classify"):
        base = () if command == "certify" else ("report", "certificates", "robust")
        cert = _at(report, base)
        key = "weights" if cert["verdict"] == ROBUST else "mixture"
        table = _table(inputs["rule"]["table"])

        def fails(vector) -> bool:
            fields = {"weights": None, "mixture": None, key: vector}
            claim = SimpleNamespace(verdict=cert["verdict"], mode=cert["mode"], **fields)
            return certificate_problem(table, claim, cert["mode"]) is not None

        return base + (key,), [Fraction(v) for v in cert[key]], fails
    field_name = ATOM_SITES.get(command)
    if field_name is None or report.get(field_name) is None:
        return None
    original = _dense(report[field_name])
    n = report[field_name]["n"]
    if command == "random-certify":
        phi = _outcomes(inputs["rule"])

        def fails(probs) -> bool:  # it must hold everyone at or below one half
            return any(_lean(phi, probs, i) > 0 for i in range(n))
    elif command == "random-dominate":
        gain = [d - f for d, f in zip(_outcomes(report["dominator"]),
                                      _outcomes(inputs["rule"]))]

        def fails(probs) -> bool:  # the dominator must raise everyone
            return any(_lean(gain, probs, i) <= 0 for i in range(n))
    else:
        def fails(probs) -> bool:  # verify recomputes the transport exactly
            return probs != original
    return (field_name,), original, fails


def _mass_moves(vector: list[Fraction], rng: random.Random):
    """Copies of vector with all of one entry's mass moved onto another, in
    seeded order; each still sums to one."""
    sources = [k for k, v in enumerate(vector) if v]
    targets = list(range(len(vector)))
    rng.shuffle(sources)
    rng.shuffle(targets)
    for a in sources:
        for b in targets:
            if b != a:
                moved = list(vector)
                moved[b] += moved[a]
                moved[a] = Fraction(0)
                yield moved


def tamper(report: dict, rng: random.Random) -> dict | None:
    """A copy of report with one certificate broken, or None when it has
    nothing that can be broken.

    A certificate distribution keeps summing to one: mass moves between its
    entries until the benchmark's own substitution check rejects it, so the
    library can reject the copy only by substitution, not by checking that
    the entries sum to one.  A field recomputed exactly has one rational
    raised by one.
    """
    copy = json.loads(json.dumps(report))
    site = distribution_site(report)
    if site is not None:
        path, vector, fails = site
        for moved in itertools.islice(_mass_moves(vector, rng), TAMPER_TRIES):
            if fails(moved):
                node, key = _at(copy, path[:-1]), path[-1]
                old = node[key]
                node[key] = (_atoms(old["n"], moved) if isinstance(old, dict)
                             else [str(v) for v in moved])
                return copy
        return None
    path = EXACT_SITES.get(report["command"])
    if path is None:
        return None
    node, key = _at(copy, path[:-1]), path[-1]
    if isinstance(node[key], list):
        node, key = node[key], rng.randrange(len(node[key]))
    node[key] = str(Fraction(node[key]) + 1)
    return copy


def _replay(text: str):
    return verify_report(loads(text))


def _random_table(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) for _ in range(2**n))


def _random_wmr(rng: random.Random, n: int) -> tuple[int, ...]:
    return _wmr_table(_odd_weights(rng, n))


def _dictatorless(rng: random.Random, n: int) -> tuple[int, ...]:
    votes = _votes(n)
    while True:
        table = _random_table(rng, n)
        if all(table != tuple(x[i] for x in votes) for i in range(n)):
            return table


def replay_commands(rng: random.Random, workdir: Path, sizes=range(3, 8)) -> list[list[str]]:
    """The fixed mix of report kinds; the seed picks the rules and weights."""
    def rule(table):
        return "--rule=" + table_string(table)

    commands = []
    # The small sizes three times and the smallest twice more: a pass then
    # holds about 180 ops, so that op_ms_p90 has ten beyond it and falls
    # among the mid-cost n = 5..6 reports rather than in the gap below
    # n = 7, and op_ms_p50 falls among the many n = 3 efficiency reports,
    # of nearly equal cost, rather than in the gap between the n = 5
    # respond and n = 4 certify reports, where it spread three times as much.
    for n in [*sizes, *[s for s in sizes if s <= 5] * 2, *[min(sizes)] * 2]:
        weights = ",".join(str(rng.randint(1, 9)) for _ in range(n))
        commands += [
            ["certify", rule(_random_wmr(rng, n)), "--pset=degenerates"],
            ["certify", rule(_random_table(rng, n)), "--pset=degenerates", "--weak"],
            ["wmr", rule(_random_wmr(rng, n)), "--ties=none"],
            ["respond", rule(_random_table(rng, n)), "--dist=uniform"],
            ["rtf", "--weights=" + weights, "--dist=uniform"],
            *(["efficiency", rule(_random_table(rng, n)), "--dist=uniform", "--mode=" + mode]
              for mode in ("strict", "plain", "weak")),
            ["dominance", "--a=" + table_string(_random_table(rng, n)),
             "--b=" + table_string(_random_wmr(rng, n)), "--dist=uniform"],
            ["gamma-witness", rule(_dictatorless(rng, n))],
        ]
    for n in [s for s in sizes if s <= 5]:
        commands += [["classify", rule(_random_wmr(rng, n))],
                     ["classify", rule(_random_table(rng, n))]]
    # Interior outcomes, never 0: a 0 outcome short-cuts random-certify.
    outcomes = [Fraction(k, 4) for k in range(-4, 5) if k]
    for n, command in ((3, "random-certify"), (4, "random-certify"), (3, "random-dominate")):
        path = workdir / f"random-rule-{n}-{command}.json"
        random_rule = RandomVotingRule(n, tuple(rng.choice(outcomes) for _ in range(2**n)))
        path.write_text(json.dumps(random_rule.to_json()), encoding="utf-8")
        commands.append([command, "--rule", str(path)])
    commands += [
        ["enumerate", "--n=3", "--predicate=" + rng.choice(RECOUNTABLE)],
        ["enumerate", "--n=4", "--predicate=monotone"],
        ["epsilon", "--n=3"],
    ]
    return commands


def build_replay(seed: int, step: Callable[[], None], workdir: Path,
                 sizes=range(3, 8)) -> Workload:
    rng = random.Random(f"replay-{seed}")
    texts = []
    for argv in replay_commands(rng, workdir, sizes):
        texts.append(emit(argv))
        step()
    reports = [json.loads(text) for text in texts]
    # Every third report gets a tampered copy, so the mix of kinds and sizes,
    # and with it where op_ms_p90 falls, is the same for every seed; the
    # seed picks the rational that changes.
    tampered = [(k, copy) for k, copy in
                ((k, tamper(r, rng)) for k, r in enumerate(reports) if k % 3 == 0)
                if copy is not None]

    ops, fingerprints, expect_clean = [], [], []
    for k, (report, text) in enumerate(zip(reports, texts)):
        ops.append(Op(report["command"], k, partial(_replay, text)))
        fingerprints.append(_fingerprint(report))
        expect_clean.append(True)
    for k, copy in tampered:
        ops.append(Op(copy["command"] + " (tampered)", k,
                      partial(_replay, json.dumps(copy, indent=2))))
        fingerprints.append(_fingerprint(copy))
        expect_clean.append(False)

    # Deterministic rules in the inputs, and the strict verdicts claimed for them.
    tables, claims = [], {}
    for report in reports:
        inputs = report["inputs"]
        for key in ("rule", "a", "b"):
            table = inputs.get(key, {}).get("table")
            if not isinstance(table, str):
                continue
            tables.append(_table(table))
            if report["command"] == "certify" and inputs["mode"] == STRICT:
                claims[len(tables) - 1] = report["verdict"] == ROBUST
            elif report["command"] == "classify":
                claims[len(tables) - 1] = report["report"]["robust"]

    def gate(records: list[Record]) -> list[tuple[int, str]]:
        problems = []
        for pos, rec in enumerate(records):
            clean = expect_clean[rec.op]
            if rec.error is not None:
                problems.append((pos, rec.error))
            elif clean and rec.result:
                problems.append((pos, f"clean {ops[rec.op].kind} report rejected: "
                                      f"{rec.result[0]}"))
            elif not clean and not rec.result:
                problems.append((pos, f"{ops[rec.op].kind} report accepted"))
        return problems

    def view(k: int, result) -> object:
        return [ops[k].kind, fingerprints[k], result]

    def cli_reports(directory: Path) -> list[Path]:
        small = [text for text, report in zip(texts, reports)
                 if _report_n(report) <= CLI_MAX_N and report["command"] != "enumerate"]
        return write_reports(directory, small, "replay")

    return Workload(
        name="replay", n=f"{min(sizes)}..{max(sizes)}", ops=ops,
        trace_ops=len(ops), rules=tables, gate=gate, view=view,
        verdicts=lambda records: claims, cli_reports=cli_reports,
        notes={"reports": len(reports), "tampered": len(tampered),
               "report_kb": sum(len(t.encode()) for t in texts) / 1024},
    )


def _fingerprint(report: dict) -> str:
    """Digest of a report without its wall-clock field."""
    return digest({k: v for k, v in report.items() if k != "elapsed_ms"})


def _report_n(report: dict) -> int:
    inputs = report["inputs"]
    for key in ("rule", "a", "dist"):
        if key in inputs:
            return inputs[key]["n"]
    return inputs["n"]


def build(name: str, seed: int, workdir: Path, step: Callable[[], None], **sizes) -> Workload:
    """The named workload's inputs and ops; replay writes files to workdir.

    step is called between pieces of the build, each well under a second,
    so that the caller can time the set-up piece by piece.
    """
    if name == "replay":
        return build_replay(seed, step, workdir, **sizes)
    return {"solve": build_solve, "sweep": build_sweep}[name](seed, step, **sizes)
