"""The package namespace loads on first access, and `verify` loads only the
modules its report kind checks."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import robustvote
from robustvote import cli

SOURCE = str(Path(robustvote.__file__).parent.parent)

# Modules no `verify` of a certify, wmr or classify report needs.
SOLVER_SIDE = ("efficiency", "gamma_mechanism", "lp", "random_rules", "respond", "wmr")

LOADED = "import sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('robustvote'))))"


def loaded_after(script: str) -> list[str]:
    """The robustvote modules a fresh interpreter holds after script."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SOURCE, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import json\n{script}\n{LOADED}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_by_verify(tmp_path, capsys) -> list[str]:
    """The modules a fresh interpreter holds after verifying the report
    just printed."""
    path = tmp_path / "report.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    script = (
        "import contextlib, io\n"
        "from robustvote import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.main(['verify', '--report', {str(path)!r}, '--quiet'])\n"
        "assert code == 0 and json.loads(out.getvalue())['ok'], out.getvalue()"
    )
    return loaded_after(script)


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import robustvote") == ["robustvote"]


def test_importing_the_cli_leaves_multiprocessing_out():
    # The CLI is one process: no subcommand starts a worker pool.
    script = ("import sys\nimport robustvote.cli\n"
              "if 'multiprocessing' in sys.modules:\n    raise SystemExit('multiprocessing is loaded')")
    assert "robustvote.cli" in loaded_after(script)


@pytest.mark.parametrize("argv", [
    ["certify", "--rule=---+-+++", "--pset=degenerates"],
    ["wmr", "--rule=---+-+++", "--ties=none"],
    ["classify", "--rule=---+-+++"],
])
def test_verify_loads_no_solver_side_module(tmp_path, capsys, argv):
    assert cli.main(argv + ["--quiet"]) == 0
    loaded = loaded_by_verify(tmp_path, capsys)
    assert "robustvote.verification" in loaded
    assert not {f"robustvote.{name}" for name in SOLVER_SIDE} & set(loaded)


def test_verify_of_an_efficiency_report_loads_no_solver(tmp_path, capsys):
    # The witness is checked by responsiveness and the transport alone; each
    # mode imports the solver behind it only where it runs.
    argv = ["efficiency", "--rule=-------+", "--dist=uniform", "--mode=plain", "--quiet"]
    assert cli.main(argv) == 1
    loaded = loaded_by_verify(tmp_path, capsys)
    assert "robustvote.efficiency" in loaded
    assert "robustvote.lp" not in loaded


def test_verify_of_a_gamma_witness_report_loads_no_solver(tmp_path, capsys):
    # The utility table is compared with gamma_utilities and the net gains
    # recomputed by certificates.net_gains; nothing solves or searches.
    assert cli.main(["gamma-witness", "--rule=---+-+++", "--quiet"]) == 0
    loaded = set(loaded_by_verify(tmp_path, capsys))
    assert "robustvote.gamma_mechanism" in loaded
    assert not {f"robustvote.{name}"
                for name in ("lp", "efficiency", "random_rules", "wmr")} & loaded


# Modules no `verify` loads: the dataclass machinery with what it imports,
# and the robustness producers.
NEVER_LOADED_BY_VERIFY = ("dataclasses", "inspect", "typing", "robustvote.robustness")

# One report of each kind in the benchmark's replay mix.
REPLAY_KINDS = [
    ["certify", "--rule=---+-+++", "--pset=degenerates"],
    ["certify", "--rule=-+-++--+", "--pset=degenerates", "--weak"],
    ["wmr", "--rule=---+-+++", "--ties=none"],
    ["respond", "--rule=-+-++--+", "--dist=uniform"],
    ["rtf", "--weights=1,2,3", "--dist=uniform"],
    *(["efficiency", "--rule=-------+", "--dist=uniform", f"--mode={mode}"]
      for mode in ("strict", "plain", "weak")),
    ["dominance", "--a=-+-++--+", "--b=---+-+++", "--dist=uniform"],
    ["gamma-witness", "--rule=---+-+++"],
    ["classify", "--rule=---+-+++"],
    ["enumerate", "--n=3", "--predicate=self_dual"],
    ["enumerate", "--n=3", "--predicate=monotone"],
    ["epsilon", "--n=3"],
]


def test_verify_of_every_replay_kind_loads_no_dataclass_machinery(tmp_path, capsys):
    # -S keeps site-packages' own imports out of the count.
    random_rule = tmp_path / "random-rule.json"
    random_rule.write_text(json.dumps({"n": 2, "table": ["1/2", "-1/4", "3/4", "-1"]}))
    commands = REPLAY_KINDS + [[kind, "--rule", str(random_rule)]
                               for kind in ("random-certify", "random-dominate")]
    paths = []
    for k, argv in enumerate(commands):
        assert cli.main(argv + ["--quiet"]) in (0, 1), argv
        paths.append(tmp_path / f"report-{k}.json")
        paths[-1].write_text(capsys.readouterr().out, encoding="utf-8")
    script = (
        "import contextlib, io, json, sys\n"
        "from robustvote import cli\n"
        f"for path in {[str(p) for p in paths]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        cli.main(['verify', '--report', path, '--quiet'])\n"
        "    assert json.loads(out.getvalue())['ok'], out.getvalue()\n"
        f"print(json.dumps([m for m in {NEVER_LOADED_BY_VERIFY!r} if m in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SOURCE, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_public_name_is_its_home_modules_object():
    assert len(robustvote.__all__) == len(set(robustvote.__all__)) == 66
    for name in robustvote.__all__:
        home = import_module(f"robustvote.{robustvote._HOMES[name]}")
        assert getattr(robustvote, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from robustvote import *", namespace)
    for name in robustvote.__all__:
        assert namespace[name] is getattr(robustvote, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        robustvote.no_such_name
    with pytest.raises(ImportError):
        exec("from robustvote import no_such_name", {})
