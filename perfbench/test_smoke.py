"""Smoke test of the benchmark: one short timed run and one short traced run
per workload.  Not part of the package's test suite (about two minutes):

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

WORKLOADS = ("verify-all", "germ-sweep", "exact-algebra")

ALL_SERIES = ["series.substitute.calls", "series.substitute.self_s",
              "series.solve_system.calls", "series.solve_system.total_s",
              "series.inverse.calls", "series.inverse.self_s", "series.truncation_yield"]
POLY = ["poly.mul.calls", "poly.mul.self_s", "poly.mul.term_pairs", "poly.mul.terms_out",
        "poly.substitute.calls", "poly.substitute.self_s"]
LATTICE = ["lattice.hilbert_basis.calls", "lattice.hilbert_basis.total_s",
           "lattice.extreme_rays.total_s", "lattice.contains.calls"]
GERMS = ["tsing.classify_germ.calls", "tsing.classify_germ.self_s",
         "tsing.classify_germ.recognized_frac"]
WPS = ["wps.s51_point_analysis.total_s", "wps.germ_at_y.total_s", "wps.germ_at_u.total_s"]
FORMATS = ["skew.sub_pfaffians.calls", "skew.sub_pfaffians.total_s",
           "skew.multiply_vector.total_s", "rings.verify_format.calls",
           "rings.verify_format.total_s", "rings.verify_format.certificates",
           "rings.load_formats.calls", "rings.load_formats.total_s"]
ALGEBRA = ["poly.exact_divide.calls", "poly.exact_divide.self_s",
           "rings.specialize_standard.calls", "rings.specialize_standard.total_s",
           "rings.derive_relation.total_s", "rings.smoothing_eliminate.total_s",
           "toric.blowup_transform.total_s", "toric.wps_collapse.total_s"]

# per-layer metrics each workload is predicted to exercise (nonzero) ...
EXERCISED = {
    "verify-all": ALL_SERIES + POLY + LATTICE + GERMS + WPS + FORMATS + ALGEBRA + [
        "rings.chart_singularity.calls", "rings.chart_singularity.total_s",
        "rings.canonical_generators.calls", "rings.canonical_generators.total_s",
        "toric.weierstrass_normalize.total_s", "curves.replay_script.total_s",
        "curves.enumerate_gamma_profiles.total_s", "tsing.codiscrepancy.total_s",
        *(f"scenario.{s}.total_s" for s in run.SCENARIOS)],
    "germ-sweep": ALL_SERIES + POLY + GERMS + WPS,
    "exact-algebra": POLY + LATTICE + FORMATS + ALGEBRA,
}
# ... and to leave untouched
UNTOUCHED = {
    "verify-all": [],
    "germ-sweep": LATTICE + FORMATS + ALGEBRA,
    "exact-algebra": ALL_SERIES + GERMS + WPS,
}


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = invoke(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    from isurf.scenarios import list_scenarios

    assert sorted(s.name for s in list_scenarios()) == sorted(run.SCENARIOS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(results, workload):
    result = results[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: (m["unit"]) for n, m in result["metrics"].items()} == \
        {n: u for n, u, _ in run.END_TO_END}
    assert result["metrics"]["pass_frac"]["value"] == 1.0
    for name in ("request_p50_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(results, workload):
    result = results[workload, 1]
    assert result["correct"] and result["failed"] == 0
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert list(metrics) == [n for n, _, _ in run.PER_LAYER]
    assert [n for n in EXERCISED[workload] if not metrics[n] > 0] == []
    assert [n for n in UNTOUCHED[workload] if metrics[n] != 0] == []
    assert metrics["series.solve_system.failed"] == 0
    assert metrics["tsing.classify_germ.failed"] == 0
    assert metrics["trace.request_p50_s"] > 0


def test_verify_all_trace_predictions(results):
    metrics = {n: m["value"] for n, m in results["verify-all", 1]["metrics"].items()}
    assert metrics["rings.canonical_generators.calls"] == 2
    assert metrics["rings.load_formats.calls"] == 2
    record = json.loads((HERE / "out" / "result-verify-all-seed0-trace1.json").read_text())
    assert record["longest_below_scenario"][0] == "rings.chart_singularity"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke("exact-algebra", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
