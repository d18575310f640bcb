import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from isurf import rings, scenarios
from isurf.cli import main

STORED_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected_reports.json").read_text())


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "isurf.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_list_text_and_json(tmp_path):
    code, out, _ = run_cli("--list")
    assert code == 0
    assert "table1" in out and "prop-no-5-2" in out
    code, out, _ = run_cli("--list", "--format", "json")
    entries = json.loads(out)
    names = [e["name"] for e in entries]
    assert len(names) >= 12
    for required in ("table1", "table2", "gale-rays", "generators", "binomials",
                     "derive-r11", "cor-pfaffian", "lemma-smoothing",
                     "hilbert-series", "wps51", "family-munu", "prop-no-5-2",
                     "examples-figures"):
        assert required in names
    assert names == sorted(names)
    assert all(e["anchor"] for e in entries)


def test_list_tag_filter():
    code, out, _ = run_cli("--list", "--tag", "section5", "--format", "json")
    entries = json.loads(out)
    names = {e["name"] for e in entries}
    assert {"table2", "prop-no-5-2", "examples-figures", "family-munu"} <= names
    assert "generators" not in names


def test_single_scenario_json_schema(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["--scenario", "table1", "--format", "json",
                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["scenario"] == "table1"
    assert report["status"] == "pass"
    assert report["seed"] == 0
    assert "elapsed_ms" not in report
    for c in report["checks"]:
        assert set(c) == {"desc", "expected", "actual", "provenance", "anchor", "ok"}
        assert c["provenance"] in ("reference", "derived", "direct")


def test_scenario_with_params_and_timing():
    code, out, _ = run_cli("--scenario", "wps51", "--param", "tau=0",
                           "--format", "json", "--timing")
    assert code == 0
    report = json.loads(out)
    assert "elapsed_ms" in report


def test_lemma_smoothing_reports_a_requested_theta():
    # theta = 0 is the cusp member 1/18(1,5), not a general one: it is
    # reported, and the check that needs a general theta keeps its own
    code, out, _ = run_cli("--scenario", "lemma-smoothing", "--param", "theta=0",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    reported = [c for c in report["checks"] if c["expected"] == "reported"]
    assert [c["desc"] for c in reported] == [
        "index-3 point for tau = 0 at the requested theta [1/18(1,5)]"]


def test_unknown_scenario_and_bad_params():
    code, _, err = run_cli("--scenario", "nope")
    assert code == 2 and "unknown scenario" in err
    code, _, err = run_cli("--scenario", "table1", "--param", "zeta=1")
    assert code == 2
    code, out, err = run_cli("--scenario", "table1", "--param", "lam=1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown parameter 'lam'" in err
    code, _, err = run_cli("--scenario", "table1", "--param", "theta")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


def test_a_parameter_the_scenario_does_not_read_is_a_usage_error():
    for scenario, key in (("table1", "mu"), ("lemma-smoothing", "tau"), ("wps51", "nu")):
        code, out, err = run_cli("--scenario", scenario, "--param", f"{key}=1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"does not read parameter {key!r}" in err
    code, out, err = run_cli("--scenario", "nope", "--param", "mu=1")
    assert code == 2 and "unknown scenario" in err


def test_all_accepts_a_parameter_that_some_scenario_reads(capsys):
    # family-munu reads mu and adds a reported check; the others ignore it
    assert main(["--all", "--param", "mu=1", "--format", "json"]) == 0
    reports = {r["scenario"]: r for r in json.loads(capsys.readouterr().out)["scenarios"]}
    assert any(c["expected"] == "reported" for c in reports["family-munu"]["checks"])
    assert not any(c["expected"] == "reported" for c in reports["table1"]["checks"])


def test_each_scenario_declares_the_parameters_it_reads():
    """The names a runner passes to ``params.get`` are those its @scenario
    registration declares, so the command line checks against the truth."""
    tree = ast.parse(Path(scenarios.__file__).read_text())
    runners = {s.runner.__name__: s for s in scenarios.list_scenarios()}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in runners:
            read = {call.args[0].value for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "get" and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "params"}
            assert read == set(runners[node.name].params), node.name


def test_text_rendering():
    code, out, _ = run_cli("--scenario", "hilbert-series")
    assert code == 0
    assert "scenario hilbert-series: PASS" in out
    assert "[ok ]" in out


def test_order_below_one_is_a_usage_error():
    for order in ("0", "-1"):
        code, out, err = run_cli("--scenario", "wps51", "--order", order)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--order must be at least 1" in err


def test_param_with_zero_denominator_is_a_usage_error():
    code, _, err = run_cli("--scenario", "table1", "--param", "theta=1/0")
    assert code == 2
    assert err.count("\n") == 1 and "theta needs a rational number" in err


def test_shallow_order_reports_error_not_fail(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["--scenario", "wps51", "--order", "2", "--format", "json",
                 "--out", str(out_path)])
    report = json.loads(out_path.read_text())
    assert code == 1 and report["status"] == "error"
    actual = report["checks"][0]["actual"]
    assert actual.startswith("TruncationTooShallow: ")
    assert actual.endswith(" (at isurf/tsing.py:classify_germ)")


def test_unwritable_out_path_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("--scenario", "table1", "--out", str(missing))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write")
    assert not missing.exists()


@pytest.mark.parametrize("seed", sorted(STORED_DIGESTS, key=int))
def test_all_json_report_matches_the_stored_digest(seed, capsys):
    # the sha256 of ``isurf --all --seed s --format json`` stdout, one per stored seed
    assert main(["--all", "--seed", seed, "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STORED_DIGESTS[seed]


def test_two_runs_in_one_process_print_the_same_report(capsys):
    # the parsed fixtures are cached per process and shared between runs:
    # the second, warm run must not see anything the first one changed
    rings._load_system.cache_clear()
    rings.load_formats.cache_clear()
    reports = []
    for _ in range(2):
        assert main(["--all", "--seed", "1", "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


ORDER_14_DIGESTS = {
    "cor-pfaffian": "884843b9cf717ed828124f5154672942e1443a85134f7ec74f861d1710c0542a",
    "lemma-smoothing": "0ae3edb7e5130a90d19356eb3864c5fcfc5ab70217c5f3051b8b65670b72acd5",
    "family-munu": "c17ad808096ef30854914dc468c5250a34382f2188880501aaf072ecad745b21",
    "wps51": "147795f1e2b12757848d398a7fc2cc5ad03c97fcc445ba29e7e92f0e868c7232",
}


@pytest.mark.parametrize("scenario", ORDER_14_DIGESTS)
def test_germ_scenario_at_order_14_matches_the_stored_digest(scenario, capsys):
    # the stored --all digests run at order 10; the germ scenarios are pinned
    # at a cap of 14 too, which must decide every germ as the cap of 10 does
    args = ["--scenario", scenario, "--seed", "1", "--order", "14", "--format", "json"]
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ORDER_14_DIGESTS[scenario]
