"""core.rational_list, the one reader of every list of rationals: it gives
what reading one entry at a time with rational_parts gives, and at every
list a report carries, a malformed entry is named as one at a time names
it, whichever entry comes first."""

import contextlib
import copy
import io
import json
import random
from fractions import Fraction

import pytest

from robustvote.cli import main
from robustvote.core import FormatError, rational_list, rational_parts
from robustvote.verification import verify_report

NON_ASCII = ["١/2", "１２/3", "-٣"]
MALFORMED = [1, None, [1], {"a": 1}, "1/0", "1 /2", "1\n2", "١/2"]
SPELLINGS = ["1/2", "2/4", "-3/6", "0/7", "0", "-0", "5", "12/3", "-7/1", "3/9"]


def problem(name: str, value) -> str:
    return f"{name}: expected a rational 'num/den' string, got {value!r}"


@pytest.mark.parametrize("text", NON_ASCII)
def test_non_ascii_digits_are_refused(text):
    with pytest.raises(FormatError) as one:
        rational_parts(text, "value")
    assert str(one.value) == problem("value", text)
    with pytest.raises(FormatError) as listed:
        rational_list(["1/2", text], "values")
    assert str(listed.value) == problem("values[1]", text)


def test_repeated_and_unreduced_strings_read_as_one_at_a_time():
    rng = random.Random("rational-reader")
    for _ in range(200):
        values = [rng.choice(SPELLINGS) for _ in range(rng.randint(0, 40))]
        assert rational_list(values, "x") == [rational_parts(v) for v in values]
        fractions = rational_list(values, "x", Fraction)
        assert fractions == [Fraction(*rational_parts(v)) for v in values]
        assert all(type(v) is Fraction for v in fractions)


def test_a_line_break_inside_an_entry_is_refused():
    with pytest.raises(FormatError) as exc:
        rational_list(["1", "1\n2", "2"], "x")
    assert str(exc.value) == problem("x[1]", "1\n2")


@pytest.mark.parametrize("bad", MALFORMED)
def test_the_first_malformed_entry_is_named(bad):
    for values in (["1", bad, "1/0"], ["1", bad, bad], ["1", bad, [2]]):
        with pytest.raises(FormatError) as exc:
            rational_list(values, "x")
        assert str(exc.value) == problem("x[1]", bad)
    with pytest.raises(FormatError) as exc:
        rational_list(["1", bad], lambda k: f"entry {k}")
    assert str(exc.value) == problem("entry 1", bad)


def emit(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--quiet"])
    assert code in (0, 1)
    report = json.loads(out.getvalue())
    assert verify_report(report) == []
    return report


# Every list of rationals a report carries: the command, the path to the
# list, and the name a problem gives entry k.
SITES = {
    "certificate weights": (["certify", "--rule=---+-+++", "--pset=degenerates"],
                            ("weights",), "certify.weights[{}]"),
    "certificate mixture": (["certify", "--rule=+--+-++-", "--pset=degenerates", "--weak"],
                            ("mixture",), "certify.mixture[{}]"),
    "dominance deltas": (["dominance", "--a=---+-+++", "--b=-------+", "--dist=uniform"],
                         ("deltas",), "dominance.deltas[{}]"),
    "respond responsiveness": (["respond", "--rule=---+-+++", "--dist=uniform"],
                               ("responsiveness",), "respond.responsiveness[{}]"),
    "random rule table": (["efficiency", "--rule=-------+", "--dist=uniform", "--mode=strict"],
                          ("witness", "table"), "table[{}]"),
    "gamma mixture": (["gamma-witness", "--rule=---+-+++"],
                      ("witness", "mixture"), "gamma-witness.mixture[{}]"),
    "gamma net gains": (["gamma-witness", "--rule=---+-+++"],
                        ("witness", "net_gains"), "gamma-witness.net_gains[{}]"),
}


@pytest.fixture(scope="module")
def reports():
    argvs = {tuple(argv) for argv, _, _ in SITES.values()}
    return {argv: emit(argv) for argv in argvs}


def at(report: dict, path):
    for key in path:
        report = report[key]
    return report


def with_entries(report: dict, path, entries: dict) -> dict:
    """A copy of report with the list at path changed at these positions."""
    copied = copy.deepcopy(report)
    values = at(copied, path)
    for k, value in entries.items():
        values[k] = value
    return copied


def positions(size: int) -> list[int]:
    return sorted({0, size // 2, size - 1})


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", MALFORMED)
def test_each_list_names_its_malformed_entry(reports, site, bad):
    argv, path, name = SITES[site]
    report = reports[tuple(argv)]
    size = len(at(report, path))
    for k in positions(size):
        assert verify_report(with_entries(report, path, {k: bad})) == [
            problem(name.format(k), bad)]
    # Two malformed entries: the first is named.
    first, last = positions(size)[-2:]
    for k in (0, first):
        if k < last:
            found = verify_report(with_entries(report, path, {k: bad, last: "1/0"}))
            assert found == [problem(name.format(k), bad)]


@pytest.mark.parametrize("site", SITES)
def test_each_list_reads_other_spellings_by_value(reports, site):
    argv, path, _ = SITES[site]
    report = reports[tuple(argv)]
    values = at(report, path)
    unreduced = []
    for text in values:
        numerator, _, denominator = text.partition("/")
        unreduced.append(f"{3 * int(numerator)}/{3 * int(denominator or 1)}")
    assert verify_report(with_entries(report, path, dict(enumerate(unreduced)))) == []


@pytest.fixture(scope="module")
def respond_report(reports):
    return reports[tuple(SITES["respond responsiveness"][0])]


@pytest.mark.parametrize("bad", MALFORMED)
def test_a_distribution_names_its_malformed_probability(respond_report, bad):
    path = ("inputs", "dist", "atoms")
    atoms = at(respond_report, path)
    for k in positions(len(atoms)):
        copied = copy.deepcopy(respond_report)
        at(copied, path)[k]["prob"] = bad
        assert verify_report(copied) == [problem(f"atoms[{k}].prob", bad)]


@pytest.mark.parametrize("profile, message", [
    (None, "atoms[{k}].profile: expected 3 characters of '+'/'-', got None"),
    (1, "atoms[{k}].profile: expected 3 characters of '+'/'-', got 1"),
    (["+"], "atoms[{k}].profile: expected 3 characters of '+'/'-', got ['+']"),
    ("+-", "atoms[{k}].profile: expected 3 characters of '+'/'-', got '+-'"),
    ("+x-", "atoms[{k}].profile: expected '+'/'-' characters, got '+x-'"),
])
def test_a_distribution_names_its_malformed_profile(respond_report, profile, message):
    path = ("inputs", "dist", "atoms")
    for k in positions(len(at(respond_report, path))):
        copied = copy.deepcopy(respond_report)
        at(copied, path)[k]["profile"] = profile
        assert verify_report(copied) == [message.format(k=k)]


def test_a_distribution_names_the_first_malformed_atom(respond_report):
    path = ("inputs", "dist", "atoms")
    atoms = at(respond_report, path)
    last = len(atoms) - 1

    def broken(changes):
        copied = copy.deepcopy(respond_report)
        for (k, key), value in changes.items():
            if key is None:
                at(copied, path)[k] = value
            else:
                at(copied, path)[k][key] = value
        return verify_report(copied)

    duplicate = atoms[0]["profile"]
    assert broken({(last, "profile"): duplicate}) == [
        f"atoms[{last}].profile: duplicate profile {duplicate!r}"]
    assert broken({(1, "prob"): "1/0", (last, "profile"): duplicate}) == [
        problem("atoms[1].prob", "1/0")]
    assert broken({(1, "profile"): duplicate, (last, "prob"): "1/0"}) == [
        f"atoms[1].profile: duplicate profile {duplicate!r}"]
    assert broken({(2, "prob"): None, (last, "profile"): "+?-"}) == [
        problem("atoms[2].prob", None)]
    assert broken({(2, "profile"): "+?-", (last, "prob"): None}) == [
        "atoms[2].profile: expected '+'/'-' characters, got '+?-'"]
    assert broken({(3, None): "atom"}) == ["atoms[3]: expected an object"]
    assert broken({(3, None): {"profile": atoms[3]["profile"]}}) == [
        problem("atoms[3].prob", None)]


@pytest.fixture(scope="module")
def gamma_report(reports):
    return reports[tuple(SITES["gamma mixture"][0])]


def with_utilities(report: dict, entries: dict, rows: dict | None = None) -> dict:
    copied = copy.deepcopy(report)
    table = copied["witness"]["utilities"]
    for (x, i, j), value in entries.items():
        table[x][i][j] = value
    for x, row in (rows or {}).items():
        table[x] = row
    return copied


@pytest.mark.parametrize("bad", MALFORMED)
def test_a_utility_table_names_its_malformed_entry(gamma_report, bad):
    table = gamma_report["witness"]["utilities"]
    flat = [(x, i, j) for x in range(len(table)) for i in range(3) for j in range(2)]
    for k in positions(len(flat)):
        x, i, j = flat[k]
        assert verify_report(with_utilities(gamma_report, {flat[k]: bad})) == [
            problem(f"utilities[{x}][{i}][{j}]", bad)]
    two = with_utilities(gamma_report, {(1, 2, 1): bad, (6, 0, 0): "1/0"})
    assert verify_report(two) == [problem("utilities[1][2][1]", bad)]


@pytest.mark.parametrize("row", [None, [], "x", [["1", "1"]] * 4,
                                 [["1/2"], ["1", "1"], ["1", "1"]]])
def test_a_malformed_row_after_a_malformed_entry_names_the_entry(gamma_report, row):
    before = with_utilities(gamma_report, {(1, 0, 1): "1 /2"}, {5: row})
    assert verify_report(before) == [problem("utilities[1][0][1]", "1 /2")]
    after = with_utilities(gamma_report, {(5, 0, 1): "1 /2"}, {1: row})
    assert verify_report(after) == ["gamma-witness: malformed utility row 1"]


def test_utilities_in_other_spellings_match_by_value(gamma_report):
    table = gamma_report["witness"]["utilities"]
    respelled = {}
    for x, row in enumerate(table):
        for i, pair in enumerate(row):
            for j, text in enumerate(pair):
                numerator, _, denominator = text.partition("/")
                respelled[x, i, j] = f"{7 * int(numerator)}/{7 * int(denominator)}"
    assert verify_report(with_utilities(gamma_report, respelled)) == []
    shifted = with_utilities(gamma_report, {(4, 1, 0): "1/2"})
    assert verify_report(shifted) == [
        "gamma-witness: utility table does not match the construction"]
