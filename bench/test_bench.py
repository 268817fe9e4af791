"""Self-test of the benchmark: tiny runs of every workload, and a gate
shown to fail on a wrong result.

    python3 -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from robustvote.respond import WeightVector  # noqa: E402
from robustvote.robustness import RobustnessCertificate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "solve": dict(n=4, rules=8, trace_rules=2, cli_rules=2),
    "sweep": dict(uniform=20, trace_rules=30, cli_rules=2),
    "replay": dict(sizes=range(3, 5)),
}


def tiny_run(capsys, workload: str, trace: int, seed: int = 1):
    code = run.main(
        # Long enough for every tiny workload to wrap into a second pass.
        ["--workload", workload, "--seed", str(seed), "--seconds", "2.5", "--trace", str(trace)],
        sizes=TINY[workload], cli_samples=2, setup_repeats=1,
    )
    captured = capsys.readouterr()
    out = captured.out.strip().splitlines()
    return code, out, json.loads(out[-1]), captured.err.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, out, result, _ = tiny_run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert any(line.startswith("gate      error_rate 0 ") for line in out)
    if trace and workload == "replay":
        lp_calls = [v["value"] for k, v in result["metrics"].items()
                    if k.startswith("lp.") and k.endswith(".calls")]
        assert lp_calls and not any(lp_calls)


def test_digest_repeats_for_one_seed(capsys):
    digests = [[line for line in tiny_run(capsys, "solve", 0, seed=7)[1]
                if line.startswith("digest")] for _ in range(2)]
    assert digests[0] == digests[1] and digests[0]


def _solve_records():
    wl = workloads.build_solve(3, lambda: None, **TINY["solve"])
    records = [run.run_op(k, op) for k, op in enumerate(wl.ops[:6])]
    assert wl.gate(records) == []
    return wl, records


def test_gate_fails_on_a_flipped_verdict():
    wl, records = _solve_records()
    robust = next(rec for rec in records
                  if wl.ops[rec.op].kind == "certify_strict" and rec.result.verdict == "robust")
    size = 2 ** int(wl.n)
    robust.result = RobustnessCertificate(
        "not_robust", "strict", mixture=(Fraction(1, size),) * size)
    assert records.index(robust) in dict(wl.gate(records))


def test_gate_fails_on_a_tampered_weight():
    wl, records = _solve_records()
    found = next(rec for rec in records
                 if wl.ops[rec.op].kind == "detect_wmr" and rec.result is not None)
    weights = list(found.result.weights)
    weights[0] = -weights[0] - 1
    found.result = WeightVector(tuple(weights), "free")
    assert records.index(found) in dict(wl.gate(records))


def test_run_exits_nonzero_when_the_library_accepts_tampered_reports(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "verify_report", lambda report: [])
    code, out, result, _ = tiny_run(capsys, "replay", 0)
    inputs = next(line for line in out if line.startswith("inputs"))
    tampered = int(re.search(r"tampered=(\d+)", inputs).group(1))
    assert code == 1 and not result["correct"]
    assert tampered > 0 and result["failed"] >= tampered


def test_run_fails_when_the_checker_skips_substitution(capsys, monkeypatch):
    """Tampered distributions still sum to one, so a checker that only checks
    that they do accepts them, and every such copy must fail the run."""
    real = workloads.verify_report

    def normalisation_only(report):
        site = workloads.distribution_site(report)
        if site is None:
            return real(report)
        vector = site[1]
        return [] if all(v >= 0 for v in vector) and sum(vector) == 1 else ["not normalised"]

    monkeypatch.setattr(workloads, "verify_report", normalisation_only)
    code, out, result, err = tiny_run(capsys, "replay", 0)
    failed = [line for line in err if line.startswith("FAILED")]
    assert code == 1 and not result["correct"] and failed
    kinds = {"certify", "classify", "random-certify", "random-dominate", "efficiency"}
    assert all(re.search(r"\((\S+) \(tampered\)\): .* report accepted", line).group(1) in kinds
               for line in failed)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_layer_metric_has_a_mapping():
    mapping = json.loads((BENCH / "layers.json").read_text())
    assert set(mapping) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    for entry in mapping.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workload_names
