"""End-to-end command-line behavior: exit codes, schema, determinism."""

import json
import re
import subprocess
import sys

import pytest

from robustvote import cli, robustness
from robustvote.certificates import InternalError

RATIONAL = re.compile(r"^-?\d+/\d+$")


def run(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "robustvote", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )


def run_json(args, stdin=None):
    proc = run(args, stdin=stdin)
    assert proc.stdout.strip(), proc.stderr
    return proc.returncode, json.loads(proc.stdout), proc.stderr


def walk_rationals(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from walk_rationals(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_rationals(value)
    elif isinstance(node, str) and "/" in node:
        yield node


class TestEnvelope:
    def test_schema_and_command(self):
        code, report, _ = run_json(["respond", "--rule=---+-+++", "--dist", "uniform"])
        assert code == 0
        assert report["schema"] == "robustvote/1"
        assert report["command"] == "respond"
        assert isinstance(report["elapsed_ms"], int)
        assert "inputs" in report

    def test_rationals_are_num_den_strings(self):
        _, report, _ = run_json(["respond", "--rule=---+-+++", "--dist", "uniform"])
        report.pop("schema")
        found = list(walk_rationals(report))
        assert found and all(RATIONAL.match(s) for s in found)

    def test_summary_on_stderr_and_quiet(self):
        proc = run(["respond", "--rule=---+-+++", "--dist", "uniform"])
        assert "responsiveness" in proc.stderr
        quiet = run(["respond", "--rule=---+-+++", "--dist", "uniform", "--quiet"])
        assert quiet.stderr == ""
        assert json.loads(quiet.stdout) is not None

    def test_deterministic_modulo_elapsed(self):
        first = run_json(["classify", "--rule=---+-+++"])[1]
        second = run_json(["classify", "--rule=---+-+++"])[1]
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second


class TestExitCodes:
    def test_affirmative_zero(self):
        code, report, _ = run_json(["certify", "--rule=---+-+++", "--pset", "degenerates"])
        assert code == 0
        assert report["verdict"] == "robust"
        assert report["verified"] is True

    def test_negative_one(self):
        code, report, _ = run_json(["certify", "--rule=-------+", "--pset", "degenerates"])
        assert code == 1
        assert report["verdict"] == "not_robust"

    def test_usage_error_two(self):
        proc = run(["certify", "--rule=---+-+++"])
        assert proc.returncode == 2

    def test_unknown_subcommand_two(self):
        proc = run(["summon"])
        assert proc.returncode == 2

    def test_exit_code_ignores_formatting_flags(self):
        plain = run(["wmr", "--rule=+--+", "--signs", "nonneg"])
        quiet = run(["wmr", "--rule=+--+", "--signs", "nonneg", "--quiet"])
        assert plain.returncode == quiet.returncode == 1

    @pytest.mark.parametrize(
        "failure", [InternalError("weights fail"), AssertionError("boom"), KeyError("k")]
    )
    def test_internal_error_three(self, monkeypatch, capsys, failure):
        def broken(*args):
            raise failure

        monkeypatch.setattr(robustness, "certify_p_robust", broken)
        code = cli.main(["certify", "--rule=---+", "--pset=degenerates"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1


class TestDiagnostics:
    def test_missing_file_names_the_flag(self):
        proc = run(["respond", "--rule=---+-+++", "--dist", "nope.json"])
        assert proc.returncode == 2
        assert "dist" in proc.stderr and "nope.json" in proc.stderr

    @pytest.mark.parametrize("field, argv, stdin", [
        ("report", ["verify", "--report"], False),
        ("rule", ["classify", "--rule"], False),
        ("dist", ["respond", "--rule=-+", "--dist"], False),
        ("pset", ["certify", "--rule=-+", "--pset"], False),
        ("report", ["verify", "--report"], True),
    ])
    def test_undecodable_bytes_name_the_field_and_path(self, tmp_path, field, argv, stdin):
        data = b'{"n": 1, "table": "\xff"}'
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        path = "-" if stdin else str(bad)
        proc = subprocess.run([sys.executable, "-m", "robustvote", *argv, path],
                              input=data if stdin else None, capture_output=True, timeout=120)
        assert proc.returncode == 2
        err = proc.stderr.decode()
        assert err.startswith(f"error: {field}: {path!r} is not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_bad_rational_names_the_field(self, tmp_path):
        bad = tmp_path / "d.json"
        bad.write_text(json.dumps({"n": 1, "atoms": [{"profile": "+", "prob": "0.5"}]}))
        proc = run(["respond", "--rule=-+", "--dist", str(bad)])
        assert proc.returncode == 2
        assert "atoms[0].prob" in proc.stderr

    def test_bad_table_length(self):
        proc = run(["classify", "--rule=---"])
        assert proc.returncode == 2
        assert "table length" in proc.stderr or "rule" in proc.stderr

    def test_a_one_entry_table_is_too_short(self):
        # One entry is 2^0, and a rule needs at least one individual.
        proc = run(["classify", "--rule=+"])
        assert proc.returncode == 2
        assert "table length 1 is not 2^n for any n >= 1" in proc.stderr

    def test_a_table_with_a_trailing_newline_is_no_table(self):
        # Matched as a whole, "+-+-\n" is not a four-entry table of length 5:
        # it is read as a file name, and there is no such file.
        proc = run(["classify", "--rule=+-+-\n"])
        assert proc.returncode == 2
        assert "table length" not in proc.stderr
        assert "cannot read" in proc.stderr

    def test_a_flag_value_is_quoted_in_a_one_line_diagnostic(self):
        # The raw value's newline would split the message; quoted, it is
        # escaped and the diagnostic stays one line.
        proc = run(["classify", "--rule=+-+-\n"])
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "cannot read '+-+-\\n'" in proc.stderr

    @pytest.mark.parametrize("n", [0, 5])
    def test_epsilon_names_the_range_of_n(self, capsys, n):
        # In-process: the message is decided before any rule is enumerated.
        assert cli.main(["epsilon", f"--n={n}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: threshold enumeration is limited to 1 <= n <= 4\n"

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        proc = run(["classify", "--rule", str(bad)])
        assert proc.returncode == 2
        assert "broken.json" in proc.stderr


class TestCommandPayloads:
    def test_enumerate_count_only(self):
        code, report, _ = run_json(["enumerate", "--n", "3", "--predicate", "robust", "--count"])
        assert code == 0
        assert report["count"] == 4
        assert "tables" not in report

    def test_epsilon_payload(self):
        code, report, _ = run_json(["epsilon", "--n", "3"])
        assert code == 0
        assert report["lower"] == "1/1"
        assert report["upper"] == "6/1"
        assert report["binding"]["rule"]["table"] == "---+-+++"
        assert report["binding"]["value"] == "2/3"

    def test_rtf_payload(self):
        code, report, _ = run_json(
            ["rtf", "--weights", "1,1,1", "--signs", "positive", "--dist", "uniform"]
        )
        assert code == 0
        assert report["value"] == "9/4"
        assert report["argmax"]["table"] == "---+-+++"

    def test_dominance_exit_follows_direction(self, tmp_path):
        # The second rule deviates only at the all-minus profile, where a
        # wrong outcome costs every individual at once.
        dist = tmp_path / "allminus.json"
        dist.write_text(json.dumps({"n": 3, "atoms": [{"profile": "---", "prob": "1/1"}]}))
        win = run(["dominance", "--a=---+-+++", "--b=+--+-+++", "--dist", str(dist), "--quiet"])
        assert win.returncode == 0
        lose = run(["dominance", "--a=+--+-+++", "--b=---+-+++", "--dist", str(dist), "--quiet"])
        assert lose.returncode == 1

    def test_random_certify_and_dominate(self, tmp_path):
        rand = tmp_path / "r.json"
        rand.write_text(
            json.dumps(
                {
                    "n": 3,
                    "table": ["-1/2", "-1/2", "-1/2", "1/2", "-1/2", "1/2", "1/2", "1/2"],
                }
            )
        )
        code, report, _ = run_json(["random-certify", "--rule", str(rand)])
        assert code == 0 and report["robust"] is True
        code, report, _ = run_json(["random-dominate", "--rule", str(rand)])
        assert code == 0 and report["found"] is True
        assert report["dominator"]["table"] == "--------"


class TestVerifySubcommand:
    def test_round_trip_via_file(self, tmp_path):
        proc = run(["certify", "--rule=---+-+++", "--pset", "degenerates", "--quiet"])
        out = tmp_path / "report.json"
        out.write_text(proc.stdout)
        code, verdict, _ = run_json(["verify", "--report", str(out)])
        assert code == 0
        assert verdict["ok"] is True
        assert verdict["target"] == "certify"
        assert verdict["problems"] == []

    def test_round_trip_via_stdin(self):
        proc = run(["classify", "--rule=-------+", "--quiet"])
        code, verdict, _ = run_json(["verify", "--report", "-"], stdin=proc.stdout)
        assert code == 0 and verdict["ok"] is True

    def test_a_command_that_is_no_string_exits_one(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({"schema": "robustvote/1", "command": ["certify"]}))
        code, verdict, _ = run_json(["verify", "--report", str(path)])
        assert code == 1
        assert verdict["problems"] == ["command: unknown report kind ['certify']"]

    def test_tampered_report_exits_one(self, tmp_path):
        proc = run(["certify", "--rule=---+-+++", "--pset", "degenerates", "--quiet"])
        report = json.loads(proc.stdout)
        report["weights"][0] = "2/3"
        out = tmp_path / "bad.json"
        out.write_text(json.dumps(report))
        code, verdict, _ = run_json(["verify", "--report", str(out)])
        assert code == 1
        assert verdict["ok"] is False
        assert verdict["problems"]
