"""robustvote benchmark: one seeded workload per run, checked and timed.

    python3 bench/run.py --workload {solve,sweep,replay} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Untraced runs (--trace 0) time the workload's ops in a closed loop
for at least S seconds and one full pass, then time fresh
`python -m robustvote verify` processes on reports about the workload's
inputs, and print the end-to-end metrics.  Traced runs (--trace 1) time a
fixed prefix of the ops twice, untraced and then with spans around the
package's public functions, and print the per-layer metrics.  Every result
is re-checked outside the timed region; the last line of stdout is one JSON
object, and the exit code is 1 when any op failed.

In-process times (ops and set-up) are in reference milliseconds.  On a
host whose cores are shared, the same work takes from 1x to 2x as long
depending on load outside this process, and that load drifts between runs,
so raw wall times of one commit spread by 20 % and more.  Each in-process
interval is therefore divided by the time of a fixed pure-Python reference
loop run right before and after it, and multiplied by REF_MS, the loop's
median time on the host the benchmark was written on (Intel Xeon at
2.1 GHz, Python 3.11.7).  The ratio to the reference repeats to about 1 %
where wall time spread by 20 %.  A change to the package moves the interval
and not the reference.  CLI times are scaled the same way by a bare
interpreter started before and after each process (BARE_MS).  Raw
wall-clock figures are printed on the `wall` line.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import ceil  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, patch, unpatch  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

if (SRC / "robustvote" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports robustvote from ./src)
else:
    workloads = None

SETUP_REPEATS = 3
# Median times of the in-process reference loop and of a bare interpreter
# start on the host the benchmark was written on (Intel Xeon at 2.1 GHz,
# Python 3.11.7): the scale of reference milliseconds.
REF_MS = 0.5
BARE_MS = 50.0
REF_REPEATS = 5  # reference samples that scale the import time
CLI_SAMPLES = 100
CLI_TIMEOUT_S = 60
BARE_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: at q = 0.9 over 100 samples, ten samples lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 201):
        total += Fraction(1, i % 97 + 1)
    return total


def reference_s() -> float:
    """Wall time of the fixed reference loop, with the collector held off so
    that it does not pay for the package's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def reference_ms(wall_s: float, before_s: float, after_s: float) -> float:
    """A wall-clock interval in reference milliseconds."""
    return wall_s / ((before_s + after_s) / 2) * REF_MS


class ReferenceClock:
    """Reference milliseconds of a long interval, summed over the segments
    between ticks, each scaled by the reference taken at its two ends; the
    reference's own time is left out."""

    def __init__(self) -> None:
        self.ms = 0.0
        self._ref = reference_s()
        self._started = time.perf_counter()

    def tick(self) -> None:
        wall = time.perf_counter() - self._started
        ref = reference_s()
        self.ms += reference_ms(wall, self._ref, ref)
        self._ref = ref
        self._started = time.perf_counter()


def run_op(op_index: int, op):
    before = reference_s()
    started = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        result, error = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    return workloads.Record(op_index, result, error, wall,
                            reference_ms(wall, before, reference_s()))


def run_checked(wl, k: int, views: dict, repeat: bool):
    """Op k, its result compared with the first one seen for that op.

    A repeat's result is then dropped, so that memory does not grow with
    the number of passes; the gate checks the first result in full.
    """
    rec = run_op(k, wl.ops[k])
    if rec.error is None:
        view = wl.view(k, rec.result)
        if views.setdefault(k, view) != view:
            rec.error = "result differs from the first pass"
    if repeat:
        rec.result, rec.repeat = None, True
    return rec


def timed_loop(wl, seconds: float):
    """Ops in order, wrapping around, until one full pass is done and
    `seconds` have passed."""
    records, views = [], {}
    started = time.perf_counter()
    while len(records) < len(wl.ops) or time.perf_counter() - started < seconds:
        records.append(run_checked(wl, len(records) % len(wl.ops), views,
                                   repeat=len(records) >= len(wl.ops)))
    return records


def op_latencies(wl, records) -> list[float]:
    """Each op's median latency over its runs, in reference ms."""
    runs: list[list[float]] = [[] for _ in wl.ops]
    for rec in records:
        runs[rec.op].append(rec.ref_ms)
    return [statistics.median(r) for r in runs]


def fixed_pass(wl, count: int, views: dict, repeat: bool):
    return [run_checked(wl, k, views, repeat) for k in range(count)]


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_process(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds of one child process run to completion."""
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=python_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - started, proc


def cli_phase(paths: list[Path], samples: int) -> tuple[list[float], list[float], list[str]]:
    """Fresh `python -m robustvote verify` processes, one at a time.

    Returns each one's time in reference ms, its wall time in ms, and the
    problems found.  Like the in-process reference, a bare interpreter
    (`python -c pass`) started right before and right after each process
    follows the host's speed: the ratio of the two repeated within 2 % where
    the wall time spread by 19 %.
    """
    bare = [sys.executable, "-c", "pass"]
    before, _ = timed_process(bare)
    times, walls, problems = [], [], []
    for k in range(samples):
        path = paths[k % len(paths)]
        wall, proc = timed_process(
            [sys.executable, "-m", "robustvote", "verify", "--report", str(path), "--quiet"])
        after, _ = timed_process(bare)
        times.append(wall / ((before + after) / 2) * BARE_MS)
        walls.append(wall * 1000)
        before = after
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout).get("ok") is True
        except json.JSONDecodeError:
            ok = False
        if not ok:
            problems.append(f"robustvote verify {path.name} exited {proc.returncode}: "
                            f"{proc.stdout.strip()[-200:]} {proc.stderr.strip()[-200:]}")
    return times, walls, problems


def bare_ms(code: str) -> float:
    """Median wall time of `python -c code`, in ms."""
    return statistics.median(
        timed_process([sys.executable, "-c", code])[0] for _ in range(BARE_SAMPLES)) * 1000


def trace_targets():
    """(owner, attribute, layer, how) for every public function a layer
    metric is taken from."""
    from robustvote import (core, efficiency, gamma_mechanism, lp, random_rules,
                            respond, robustness, verification, wmr)

    targets = [
        (lp, "solve_feasibility", "lp.feasibility", "keep"),
        (lp, "alternative_strict", "lp.alternative", "keep"),
        (lp, "alternative_weak", "lp.alternative", "keep"),
        (lp, "matrix_game", "lp.game", "keep"),
        (lp, "satisfies", "lp.recheck", "call"),
        (lp, "certifies_infeasibility", "lp.recheck", "call"),
        (robustness, "certify_p_robust", "robustness.certify", "call"),
        (robustness, "certify_p_robust_full", "robustness.certify", "call"),
        (robustness, "agreement_matrix", "robustness.agreement_matrix", "call"),
        (robustness, "responsiveness_game", "robustness.game", "call"),
        (wmr, "detect_wmr", "wmr.detect", "call"),
        (wmr, "weights_represent", "wmr.represent", "call"),
        (core, "load_rule", "core.parse", "call"),
        (core, "enumerate_rules", "core.enumerate", "generator"),
        (verification, "verify_report", "verification", "keep"),
        (json, "loads", "verification.json", "call"),
    ]
    targets += [(cls, "from_json", "core.parse", "classmethod")
                for cls in (core.VotingRule, core.RandomVotingRule, core.Distribution,
                            core.DistributionSet)]
    targets += [(core, name, "core.predicates", "call") for name in
                ("is_self_dual", "is_own_vote_monotone", "is_anonymous", "is_dictatorship")]
    for module, names in (
        (respond, ("responsiveness", "rtf_max_weighted", "agreement_counts",
                   "mean_responsiveness_by_count")),
        (efficiency, ("pareto_compare", "efficiency_verdict", "is_strictly_efficient",
                      "transport_distribution")),
        (random_rules, ("certify_random", "find_dominating_deterministic",
                        "sign_pattern_holds")),
        (gamma_mechanism, ("gamma_counterexample", "gamma_utilities",
                           "epsilon_lower_witness", "is_strategy_proof")),
    ):
        label = module.__name__.rsplit(".", 1)[1]
        targets += [(module, name, label, "call") for name in names]
    return targets


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def lp_shape(tracer) -> dict[str, int]:
    """Rows, variables and nonzeros of the systems passed to the solver, and
    the widest rational it returned."""
    shape = Counter()
    widest = 0
    for label, args, result in tracer.kept:
        if label == "lp.feasibility":
            system = args[0]
            shape["rows"] += len(system.rows)
            shape["vars"] += system.num_vars
            shape["nonzeros"] += sum(1 for row in system.rows for c in row.coeffs if c)
            vectors = (result.witness, result.certificate)
        elif label == "lp.alternative":
            vectors = (result.weights, result.mixture)
        elif label == "lp.game":
            vectors = ((result.value,), result.row_strategy, result.col_strategy)
        else:
            continue
        widest = max([widest] + [_bits(v) for vec in vectors if vec for v in vec])
    return {"lp.rows": shape["rows"], "lp.vars": shape["vars"],
            "lp.nonzeros": shape["nonzeros"], "lp.max_bits": widest}


def input_shares(wl, records) -> dict[str, tuple[float, int]]:
    """Share of the input rules with each property, with its base."""
    verdicts = wl.verdicts(records)
    base = len(wl.rules)
    return {
        "core.share_self_dual": (sum(map(workloads.is_self_dual, wl.rules)) / base, base),
        "core.share_monotone": (sum(map(workloads.is_monotone, wl.rules)) / base, base),
        "core.share_robust": (sum(verdicts.values()) / max(1, len(verdicts)), len(verdicts)),
    }


def layer_metrics(tracer, wl, records, overhead: float) -> dict:
    calls, errors = tracer.calls, tracer.errors
    self_s = tracer.self_times()
    metrics = {}
    for layer in ("lp.feasibility", "lp.alternative", "lp.game", "robustness.certify",
                  "robustness.agreement_matrix", "robustness.game", "wmr.detect",
                  "wmr.represent", "core.parse", "core.predicates"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics["lp.recheck.self_s"] = (self_s.get("lp.recheck", 0.0), "s")
    for name, value in lp_shape(tracer).items():
        metrics[name] = (value, "bits" if name == "lp.max_bits" else "count")
    metrics["lp.errors"] = (sum(v for k, v in errors.items() if k.startswith("lp.")), "count")
    metrics["robustness.lp_per_certify"] = (
        calls["lp.alternative"] / max(1, calls["robustness.certify"]), "ratio")
    metrics["wmr.lp_per_detect"] = (
        tracer.children_of("wmr.detect", "lp.feasibility") / max(1, calls["wmr.detect"]),
        "ratio")
    metrics["core.enumerate.self_s"] = (self_s.get("core.enumerate", 0.0), "s")
    for name, (share, _) in input_shares(wl, records).items():
        metrics[name] = (share, "ratio")
    metrics["verification.calls"] = (calls["verification"], "count")
    metrics["verification.self_s"] = (self_s.get("verification", 0.0), "s")
    metrics["verification.json_s"] = (self_s.get("verification.json", 0.0), "s")
    metrics["verification.rejected"] = (
        sum(1 for label, _, result in tracer.kept if label == "verification" and result),
        "count")
    for layer in ("respond", "efficiency", "random_rules", "gamma_mechanism"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def cli_layer_metrics(wl) -> dict:
    """Start-up costs behind cli_ms_*, measured on replay only (0 elsewhere)."""
    if wl.name != "replay":
        return {"cli.interpreter_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms"),
                "cli.report_kb": (0.0, "KiB")}
    interpreter = bare_ms("pass")
    return {
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (bare_ms("import robustvote.cli") - interpreter, "ms"),
        "cli.report_kb": (wl.notes["report_kb"], "KiB"),
    }


def machine_record() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}  cpu {cpu}  nproc {os.cpu_count()}"


def main(argv: list[str] | None = None, sizes: dict | None = None,
         cli_samples: int = CLI_SAMPLES, setup_repeats: int = SETUP_REPEATS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "sweep", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if workloads is None:
        print(f"error: no robustvote package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    imported = time.perf_counter() - STARTED
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, imported, sizes or {}, cli_samples, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, imported: float, sizes: dict,
            cli_samples: int, setup_repeats: int) -> int:
    import_ms = reference_ms(imported, *[statistics.median(
        reference_s() for _ in range(REF_REPEATS))] * 2)
    setups = []
    for _ in range(setup_repeats):
        clock = ReferenceClock()
        started = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, workdir, clock.tick, **sizes)
        wall = time.perf_counter() - started
        clock.tick()
        setups.append((wall, clock.ms))

    problems: list[str] = []
    if args.trace:
        views: dict = {}
        plain = fixed_pass(wl, wl.trace_ops, views, repeat=False)
        tracer = Tracer()
        lookups = [m for name, m in sys.modules.items()
                   if name == "robustvote" or name.startswith("robustvote.")]
        undo = patch(tracer, trace_targets(), lookups + [workloads])
        try:
            traced = fixed_pass(wl, wl.trace_ops, views, repeat=True)
        finally:
            unpatch(undo)
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
        records = plain + traced
        overhead = sum(r.ref_ms for r in traced) / sum(r.ref_ms for r in plain)
        metrics = layer_metrics(tracer, wl, plain, overhead)
        metrics.update(cli_layer_metrics(wl))
        digested, wall_line = plain, None
    else:
        records = timed_loop(wl, args.seconds)
        cli_ms, cli_walls, problems = cli_phase(wl.cli_reports(workdir), cli_samples)
        latencies = op_latencies(wl, records)
        metrics = {
            "setup_s": ((import_ms + statistics.median(ms for _, ms in setups)) / 1000, "s"),
            "ops_per_s": (1000 * len(latencies) / sum(latencies), "ops/s"),
            "op_ms_p50": (percentile(latencies, 0.5), "ms"),
            "op_ms_p90": (percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_ms_p50": (percentile(cli_ms, 0.5), "ms"),
            "cli_ms_p90": (percentile(cli_ms, 0.9), "ms"),
        }
        walls = [rec.wall_s * 1000 for rec in records]
        wall_line = (
            f"setup {imported + statistics.median(w for w, _ in setups):.3f} s  "
            f"ops {1000 * len(walls) / sum(walls):.4g}/s  "
            f"op p50 {percentile(walls, 0.5):.4g} ms  p90 {percentile(walls, 0.9):.4g} ms  "
            f"cli p50 {percentile(cli_walls, 0.5):.4g} ms  p90 {percentile(cli_walls, 0.9):.4g} ms"
        )
        digested = records[:len(wl.ops)]

    failures = gate(wl, records) + problems
    attempted = len(records) + (0 if args.trace else cli_samples)
    report(args, wl, records, digested, metrics, failures, attempted, wall_line)
    return 1 if failures else 0


def gate(wl, records) -> list[str]:
    """One line per failed op: the workload's own checks of each first
    result, and every repeat that differed from its first result."""
    checked = [pos for pos, rec in enumerate(records) if not rec.repeat]
    failed = {checked[pos]: why for pos, why in wl.gate([records[p] for p in checked])}
    failed.update((pos, rec.error) for pos, rec in enumerate(records)
                  if rec.repeat and rec.error is not None)
    return [f"op {pos} ({wl.ops[records[pos].op].kind}): {why}"
            for pos, why in sorted(failed.items())]


def report(args, wl, records, digested, metrics, failures, attempted, wall_line) -> None:
    kinds = Counter(wl.ops[rec.op].kind for rec in records)
    shares = input_shares(wl, records)
    print(f"workload  {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine   {machine_record()}")
    print(f"inputs    n={wl.n}  " + "  ".join(f"{k}={v}" for k, v in wl.notes.items()
                                             if not isinstance(v, float)))
    print("ops       " + "  ".join(f"{kind}={count}" for kind, count in sorted(kinds.items())))
    print("shares    " + "  ".join(f"{name}={share:.4f} (base {base})"
                                   for name, (share, base) in shares.items()))
    views = [wl.view(rec.op, rec.result) if rec.error is None else rec.error
             for rec in digested]
    print(f"digest    {workloads.digest(views)} over the first {len(digested)} ops")
    print(f"gate      error_rate {len(failures) / attempted:.6g}  "
          f"({len(failures)} failed of {attempted} attempted)")
    if wall_line:
        print(f"wall      {wall_line}")
    for name, (value, unit) in metrics.items():
        print(f"metric    {name} {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED    {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
