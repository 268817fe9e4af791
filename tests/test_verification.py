"""Reports re-check cleanly, and every tampered report is caught."""

import contextlib
import copy
import io
import json

import pytest

from robustvote.cli import main
from robustvote.verification import SCHEMA, verify_report


def run_cli(argv):
    """Run the command in-process and parse the JSON report."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--quiet"])
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    return code, report


def fresh_reports(tmp_path):
    """One report per command kind, built from small canonical inputs."""
    twopoint = tmp_path / "twopoint.json"
    twopoint.write_text(
        json.dumps(
            {
                "n": 3,
                "atoms": [
                    {"profile": "++-", "prob": "1/2"},
                    {"profile": "--+", "prob": "1/2"},
                ],
            }
        )
    )
    rand = tmp_path / "rand.json"
    rand.write_text(
        json.dumps(
            {"n": 3, "table": ["-1/2", "-1/2", "-1/2", "1/2", "-1/2", "1/2", "1/2", "1/2"]}
        )
    )
    invocations = {
        "classify": ["classify", "--rule=---+-+++"],
        "certify": ["certify", "--rule=---+-+++", "--pset", "degenerates"],
        "respond": ["respond", "--rule=---+-+++", "--dist", str(twopoint)],
        "rtf": ["rtf", "--weights", "1,1,1", "--signs", "positive", "--dist", "uniform"],
        "wmr": ["wmr", "--rule=---+-+++", "--signs", "nonneg", "--ties", "none"],
        "efficiency": ["efficiency", "--rule=-------+", "--dist", "uniform", "--mode", "strict"],
        "dominance": ["dominance", "--a=---+-+++", "--b=-------+", "--dist", str(twopoint)],
        "random-certify": ["random-certify", "--rule", str(rand)],
        "random-dominate": ["random-dominate", "--rule", str(rand)],
        "enumerate": ["enumerate", "--n", "2", "--predicate", "anonymous"],
        "epsilon": ["epsilon", "--n", "3"],
        "gamma-witness": ["gamma-witness", "--rule=---+-+++"],
    }
    reports = {}
    for name, argv in invocations.items():
        code, report = run_cli(argv)
        assert report is not None, name
        reports[name] = report
    return reports


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return fresh_reports(tmp_path_factory.mktemp("reports"))


class TestCleanReportsPass:
    def test_every_command_round_trips(self, reports):
        for name, report in reports.items():
            problems = verify_report(report)
            assert problems == [], f"{name}: {problems}"


class TestStructuralRejections:
    def test_non_object(self):
        assert verify_report([1, 2]) == ["report: expected a JSON object"]

    def test_wrong_schema(self):
        problems = verify_report({"schema": "robustvote/2", "command": "respond"})
        assert problems and "schema" in problems[0]

    def test_unknown_command(self):
        problems = verify_report({"schema": SCHEMA, "command": "summon"})
        assert problems == ["command: unknown report kind 'summon'"]

    @pytest.mark.parametrize("command", [["certify"], {"certify": 1}, None])
    def test_a_command_that_is_no_string_is_unknown(self, command):
        problems = verify_report({"schema": SCHEMA, "command": command})
        assert problems == [f"command: unknown report kind {command!r}"]

    def test_verify_reports_are_not_verifiable(self, reports):
        report = {"schema": SCHEMA, "command": "verify", "ok": True}
        problems = verify_report(report)
        assert problems == ["verify reports carry no certificate to re-check"]

    def test_missing_fields_become_problems(self):
        report = {"schema": SCHEMA, "command": "respond"}
        problems = verify_report(report)
        assert len(problems) == 1

    def test_malformed_rational_becomes_a_problem(self, reports):
        broken = copy.deepcopy(reports["respond"])
        broken["responsiveness"][0] = "0.75"
        assert verify_report(broken) != []

    @pytest.mark.parametrize("kind", ["epsilon", "enumerate"])
    @pytest.mark.parametrize("n", [17, 10**6, True])
    def test_n_out_of_range_is_named(self, reports, kind, n):
        # Checked before anything is sized by 2**n.
        broken = copy.deepcopy(reports[kind])
        broken["inputs"]["n"] = n
        problems = verify_report(broken)
        assert problems == [f"n: expected an integer in [1, 16], got {n!r}"]


def mutations(name, report):
    """Yield (label, tampered report) pairs that must all fail."""
    def patched(path, value):
        tampered = copy.deepcopy(report)
        cursor = tampered
        for key in path[:-1]:
            cursor = cursor[key]
        cursor[path[-1]] = value
        return tampered

    if name == "certify":
        yield "verdict flip", patched(("verdict",), "not_robust")
        yield "weight doubled", patched(("weights", 0), "2/3")
    elif name == "classify":
        yield "flag flip", patched(("report", "anonymous"), False)
        yield "wmr weight tamper", patched(
            ("report", "wmr", "nonnegative_forbidden", "weights", 0), "7/1"
        )
        yield "certificate tamper", patched(
            ("report", "certificates", "robust", "weights", 0), "1/2"
        )
    elif name == "respond":
        yield "entry shift", patched(("responsiveness", 0), "1/2")
        yield "minimum shift", patched(("minimum",), "1/8")
    elif name == "rtf":
        yield "value shift", patched(("value",), "5/2")
        yield "argmax tamper", patched(("argmax", "table"), "--------")
    elif name == "wmr":
        yield "found flip", patched(("found",), False)
        yield "weight tamper", patched(("weights", "weights", 0), "0/1")
    elif name == "efficiency":
        yield "verdict flip", patched(("efficient",), True)
        yield "witness tamper", patched(("witness", "table", 7), "-1/1")
        dropped = copy.deepcopy(report)
        del dropped["transport"]
        yield "transport dropped", dropped
        yield "transport tampered", patched(("transport", "atoms", 0, "profile"), "---")
    elif name == "dominance":
        yield "relation tamper", patched(("relation",), "equal")
        yield "delta tamper", patched(("deltas", 0), "0/1")
    elif name == "random-certify":
        yield "robust flip", patched(("robust",), False)
        yield "weight tamper", patched(("weights", "weights", 0), "0/1")
    elif name == "random-dominate":
        yield "dominator tamper", patched(("dominator", "table"), "++++++++")
        yield "distribution tamper", patched(
            ("distribution", "atoms", 0, "prob"), "1/3"
        )
    elif name == "enumerate":
        yield "count shift", patched(("count",), 3)
        yield "table swap", patched(("tables", 0), "-+-+")
    elif name == "epsilon":
        yield "lower shift", patched(("lower",), "2/1")
        yield "value shift", patched(("binding", "value"), "3/4")
        yield "strategy tamper", patched(("binding", "individual_weights", 0), "1/1")
    elif name == "gamma-witness":
        yield "net gain flip", patched(("witness", "net_gains", 0), "1/7")
        yield "mixture tamper", patched(("witness", "mixture", 0), "1/4")


class TestMutationsAreCaught:
    def test_every_mutation_fails(self, reports):
        checked = 0
        for name, report in reports.items():
            for label, tampered in mutations(name, report):
                problems = verify_report(tampered)
                assert problems != [], f"{name}: {label} slipped through"
                checked += 1
        assert checked >= 26


class TestSignClasses:
    # Each tampered payload still passes every other check, so the sign
    # class is the one problem found.
    def test_positive_wmr_weights_with_a_zero_are_rejected(self):
        code, report = run_cli(["wmr", "--rule=-+-+-+-+", "--signs", "positive",
                                "--ties", "none"])
        assert code == 0 and verify_report(report) == []
        report["weights"]["weights"] = ["1/1", "0/1", "1/2"]
        assert verify_report(report) == ["wmr: weight payload weights leave the sign class"]

    def test_negative_rtf_weight_declared_nonnegative_is_rejected(self):
        code, report = run_cli(["rtf", "--weights=-1,1,1", "--signs", "free",
                                "--dist", "uniform"])
        assert code == 0 and verify_report(report) == []
        report["inputs"]["sign_class"] = "nonnegative"
        assert verify_report(report) == ["rtf: weights leave their declared sign class"]

    def test_a_robust_random_rule_needs_nonnegative_weights(self):
        # The anti-dictator at n=2 is not robust.  Weights (-1, 0) do match
        # the sign of its outcome at every profile, so the forgery stood
        # while the declared class (free) was the only one checked.
        code, report = run_cli(["random-certify", "--rule=+-+-"])
        assert code == 1 and verify_report(report) == []
        report["robust"] = True
        report["counterexample"] = None
        report["weights"] = {"weights": ["-1/1", "0/1"], "sign_class": "free"}
        assert verify_report(report) == [
            "random-certify: robustness weights must be nonnegative"]

    def test_an_unknown_sign_class_is_named(self):
        code, report = run_cli(["rtf", "--weights=1,1,1", "--dist", "uniform"])
        report["inputs"]["sign_class"] = "bold"
        assert verify_report(report) == ["unknown sign class 'bold'"]


class TestClassifyRepresentations:
    """The six representation verdicts of a classify report, and the
    implications between them that hold for every rule."""

    @pytest.fixture
    def report(self, reports):
        # Majority on three: all six representations exist.
        return copy.deepcopy(reports["classify"])

    def test_missing_keys_are_rejected(self, report):
        del report["report"]["wmr"]["free_allowed"]
        del report["report"]["wmr"]["positive_forbidden"]
        assert verify_report(report) == [
            "classify: the representation keys are not the six sign class and tie pairs"]

    def test_an_extra_key_is_rejected(self, report):
        report["report"]["wmr"]["bogus_allowed"] = None
        assert verify_report(report) == [
            "classify: the representation keys are not the six sign class and tie pairs"]

    def test_tie_free_weights_imply_weights_with_ties(self, report):
        report["report"]["wmr"]["positive_allowed"] = None
        assert verify_report(report) == [
            "classify: positive weights without ties but none with ties"]

    def test_narrow_sign_classes_imply_wide_ones(self, report):
        report["report"]["wmr"]["free_allowed"] = None
        report["report"]["wmr"]["free_forbidden"] = None
        assert verify_report(report) == [
            "classify: nonnegative weights with ties allowed but no free ones"]

    def test_tie_free_positive_and_nonnegative_weights_agree(self, report):
        for key in ("positive_forbidden", "positive_allowed"):
            report["report"]["wmr"][key] = None
        assert verify_report(report) == [
            "classify: tie-free positive and nonnegative weights disagree"]


class TestDeclaredSignClassIsRequired:
    def test_rtf(self, reports):
        report = copy.deepcopy(reports["rtf"])
        del report["inputs"]["sign_class"]
        assert verify_report(report) == ["rtf.inputs: missing field 'sign_class'"]

    def test_random_certify(self):
        code, report = run_cli(["random-certify", "--rule=---+-+++"])
        assert code == 0 and verify_report(report) == []
        del report["weights"]["sign_class"]
        assert verify_report(report) == [
            "random-certify.weights: missing field 'sign_class'"]


class TestEnumerateRecount:
    def test_recountable_predicate_is_recounted(self):
        code, report = run_cli(["enumerate", "--n", "2", "--predicate", "anonymous"])
        assert code == 0
        assert verify_report(report) == []
        short = copy.deepcopy(report)
        short["tables"] = short["tables"][:-1]
        short["count"] -= 1
        assert verify_report(short) != []

    def test_certified_predicate_gets_structural_checks_only(self):
        code, report = run_cli(["enumerate", "--n", "2", "--predicate", "robust"])
        assert code == 0
        assert report["count"] == 2
        assert verify_report(report) == []
        # A wrong-length table is structural damage and is still caught.
        broken = copy.deepcopy(report)
        broken["tables"][0] = "-+-+-+"
        assert verify_report(broken) != []


class TestEfficiencyTransport:
    """A transport is reported exactly when the witness moves some mass."""

    def test_a_transport_that_exists_must_be_reported(self, reports):
        report = copy.deepcopy(reports["efficiency"])
        assert report["transport"] is not None
        report["transport"] = None
        assert verify_report(report) == ["efficiency: transport missing where one exists"]
        del report["transport"]
        assert verify_report(report) == ["efficiency: transport missing where one exists"]

    def test_a_witness_off_the_support_has_no_transport(self, tmp_path):
        # Unanimity is not strictly efficient without mass on +++: flipping
        # the outcome there moves nobody, and no mass.
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"n": 3, "atoms": [{"profile": "---", "prob": "1/1"}]}))
        code, report = run_cli(["efficiency", "--rule=-------+", "--dist", str(path),
                                "--mode", "strict"])
        assert code == 1 and report["transport"] is None
        assert verify_report(report) == []
        report["transport"] = {"n": 3, "atoms": [{"profile": "---", "prob": "1/1"}]}
        assert verify_report(report) == ["efficiency: transport reported where none exists"]


class TestGammaWitness:
    """The utility table, mixture and net gains are compared by value."""

    @pytest.fixture
    def report(self, reports):
        # Majority on three: the small payoff is 1/7 and every net gain -1/7.
        return copy.deepcopy(reports["gamma-witness"])

    def test_a_tampered_utility_entry_is_rejected(self, report):
        hi, lo = report["witness"]["utilities"][5][2]
        report["witness"]["utilities"][5][2] = [lo, hi]
        assert verify_report(report) == [
            "gamma-witness: utility table does not match the construction"]

    def test_a_malformed_utility_rational_is_named(self, report):
        report["witness"]["utilities"][3][1][1] = "0.5"
        # A wrong entry before it does not hide it: every entry is read first.
        report["witness"]["utilities"][0][0] = ["9/1", "9/1"]
        assert verify_report(report) == [
            "utilities[3][1][1]: expected a rational 'num/den' string, got '0.5'"]

    def test_value_equal_spellings_are_accepted(self, report):
        witness = report["witness"]
        respelled = {"1/7": "2/14", "1/1": "1", "0/1": "0"}
        witness["utilities"] = [[[respelled[v] for v in pair] for pair in row]
                                for row in witness["utilities"]]
        witness["mixture"] = ["2/16"] * 8
        assert witness["net_gains"] == ["-1/7"] * 3
        witness["net_gains"] = ["-2/14"] * 3
        assert verify_report(report) == []

    def test_an_integer_net_gain_may_be_written_bare(self):
        # Against individual 1 always: nobody else is a dictator, and
        # individual 1's net gain is -1.
        code, report = run_cli(["gamma-witness", "--rule=+-+-+-+-"])
        assert code == 0 and report["witness"]["net_gains"][0] == "-1/1"
        report["witness"]["net_gains"][0] = "-1"
        assert verify_report(report) == []
        report["witness"]["net_gains"][0] = "-2/3"
        assert verify_report(report) == ["gamma-witness: net gain for individual 1 is wrong"]


def certify_report(table: str, *flags: str) -> dict:
    code, report = run_cli(["certify", f"--rule={table}", "--pset=degenerates", *flags])
    assert report is not None and verify_report(report) == []
    return report


# certify --pset=degenerates of a strictly robust rule, of a weakly robust
# one and of one that is not robust.
POINT_MASS_RULES = [("---+-+++",), ("-+-+-+-+", "--weak"), ("-+++---+",)]


class TestPointMassRecognition:
    """The 2^n point masses are read off the JSON atoms; any other set goes
    through DistributionSet.from_json, with the same outcomes as before."""

    @staticmethod
    def _points(report) -> list:
        return report["inputs"]["pset"]["extreme_points"]

    @pytest.mark.parametrize("argv", POINT_MASS_RULES)
    def test_swapped_points(self, argv):
        report = certify_report(*argv)
        points = self._points(report)
        points[0], points[1] = points[1], points[0]
        robust = report["verdict"] == "robust"
        assert verify_report(report) == (
            [] if robust else ["certify: mixture leaves individual 2 responsive"])

    @pytest.mark.parametrize("prob", ["2/2", "1"])
    @pytest.mark.parametrize("argv", POINT_MASS_RULES)
    def test_a_unit_mass_in_another_spelling(self, argv, prob):
        report = certify_report(*argv)
        self._points(report)[4]["atoms"][0]["prob"] = prob
        assert verify_report(report) == []

    @pytest.mark.parametrize("argv", POINT_MASS_RULES)
    def test_a_duplicate_point(self, argv):
        report = certify_report(*argv)
        points = self._points(report)
        points.append(copy.deepcopy(points[3]))
        assert verify_report(report) == []

    @pytest.mark.parametrize("argv", POINT_MASS_RULES)
    def test_a_point_of_half_mass(self, argv):
        report = certify_report(*argv)
        self._points(report)[2]["atoms"][0]["prob"] = "1/2"
        assert verify_report(report) == [
            "extreme_points[2].atoms: probabilities must sum to 1, got 1/2"]

    @pytest.mark.parametrize("argv", POINT_MASS_RULES)
    def test_a_point_moved_onto_another(self, argv):
        report = certify_report(*argv)
        self._points(report)[2]["atoms"][0]["profile"] = "+++"
        robust = report["verdict"] == "robust"
        assert verify_report(report) == (
            [] if robust else ["certify.mixture: expected 7 entries, got 8"])

    def test_an_n_that_only_equals_an_integer_is_refused(self):
        # JSON true and 1.0 compare equal to 1, yet are no integer n.
        report = certify_report("-+")
        pset = report["inputs"]["pset"]
        pset["n"] = True
        assert verify_report(report) == ["n: expected an integer in [1, 16], got True"]
        pset["n"] = 1
        pset["extreme_points"][1]["n"] = 1.0
        assert verify_report(report) == [
            "extreme_points[1].n: expected an integer in [1, 16], got 1.0"]

    @pytest.mark.parametrize("argv", POINT_MASS_RULES)
    def test_the_point_masses_build_no_distribution(self, argv, monkeypatch):
        from robustvote.core import Distribution

        report = certify_report(*argv)

        def refuse(*args):
            raise AssertionError("a Distribution was built")

        monkeypatch.setattr(Distribution, "_set_support", refuse)
        assert verify_report(report) == []


class TestMixtureEntries:
    """A robustness mixture is checked on its nonzero entries, but every
    entry is still parsed and validated, and a negative one is kept."""

    @staticmethod
    def _refutation(kind: str):
        """A refuted report, its mixture, the mixture's field name, and the
        positions of a zero entry and of a nonzero one."""
        if kind == "certify":
            report, field = certify_report("-+++---+"), "certify"
            certificate = report
        else:
            _, report = run_cli(["classify", "--rule=-+++---+"])
            field = "classify.certificates.robust"
            certificate = report["report"]["certificates"]["robust"]
        assert certificate["verdict"] == "not_robust" and verify_report(report) == []
        mixture = certificate["mixture"]
        zero = next(k for k, m in enumerate(mixture) if m == "0/1")
        mass = next(k for k, m in enumerate(mixture) if m != "0/1")
        return report, mixture, field, zero, mass

    @pytest.mark.parametrize("kind", ["certify", "classify"])
    def test_a_malformed_zero_entry(self, kind):
        report, mixture, field, zero, _ = self._refutation(kind)
        mixture[zero] = "none"
        assert verify_report(report) == [
            f"{field}.mixture[{zero}]: expected a rational 'num/den' string, got 'none'"]

    @pytest.mark.parametrize("kind", ["certify", "classify"])
    def test_a_zero_in_another_spelling(self, kind):
        report, mixture, _, zero, _ = self._refutation(kind)
        mixture[zero] = "0/7"
        assert verify_report(report) == []

    @pytest.mark.parametrize("kind", ["certify", "classify"])
    def test_a_negative_entry_is_read(self, kind):
        # Mass moved from a nonzero entry leaves a negative zero entry; the
        # sum stays one, so only the sign is wrong.
        report, mixture, field, zero, mass = self._refutation(kind)
        numerator, denominator = map(int, mixture[mass].split("/"))
        mixture[mass] = f"{numerator * 4 + denominator}/{denominator * 4}"
        mixture[zero] = "-1/4"
        context = "certify" if kind == "certify" else field
        assert verify_report(report) == [
            f"{context}: mixture is not a distribution over extreme points"]

    @pytest.mark.parametrize("kind", ["certify", "classify"])
    def test_a_missing_entry(self, kind):
        report, mixture, field, _, _ = self._refutation(kind)
        mixture.pop()
        assert verify_report(report) == [f"{field}.mixture: expected 8 entries, got 7"]
