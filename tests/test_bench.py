import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from polytract import bench, harness
from polytract.report import Report

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_layer_ns_covers_every_layer_and_rung():
    out = bench.layer_ns(0, ladder=(8, 16))
    assert "bds.parse_instance" in out and "cvp.parse_circuit" in out
    for rungs in out.values():
        assert [n for n, _ in rungs] == [8, 16]
        assert all(ns > 0 for _, ns in rungs)


def test_layer_peak_mb_has_one_entry_per_rung():
    out = bench.layer_peak_mb(0, ladder=(8, 16, 32))
    assert set(out) == {"bds.parse_instance", "bds.bds_member", "cvp.parse_circuit",
                        "cvp.cvp_member", "cvp.cvp_member (forward-wired)",
                        "encoding.unescape_payload (escape-dense)"}
    for rungs in out.values():
        assert [n for n, _ in rungs] == [8, 16, 32]
        assert all(mb > 0 for _, mb in rungs)


def test_suite_record_names_failing_rows(monkeypatch):
    reports = [Report("compositions").add("ok", True),
               Report("runtime-fits").add("ok", True).add("slope", False)]
    monkeypatch.setattr(bench, "run_suite", lambda config: harness.SuiteReport(
        verdict=False, environment={}, reports=reports, timings={}))
    record = bench._suite(0)
    assert record["verdict"] == "fail"
    assert record["failed_rows"] == ["runtime-fits/slope"]


def test_records_are_kept_side_by_side(tmp_path, monkeypatch):
    path = tmp_path / "bench.json"
    runs = iter((1.0, 2.0))
    monkeypatch.setattr(bench, "measure", lambda: {
        "suite": {"wall_s": next(runs), "peak_rss_mb": 3.0}})
    bench.main(["--json", str(path), "--label", "parent"])
    bench.main(["--json", str(path)])
    columns = json.loads(path.read_text())["columns"]
    assert {k: v["suite"]["wall_s"] for k, v in columns.items()} == {
        "parent": 1.0, "change": 2.0}


def test_parent_checkout_is_timed_against_this_one_in_one_process():
    parent = bench.import_checkout(ROOT)
    assert bench.import_checkout(ROOT) == parent
    assert sys.modules[f"{parent}.encoding"] is not sys.modules["polytract.encoding"]
    out = bench.interleaved(0, parent, ladder=(8, 16))
    assert set(out["ns_per_call"]) == set(bench._layer_tasks(8, 0))
    for rows in out["ns_per_call"].values():
        assert [row[0] for row in rows] == [8, 16]
        for _, p, c, ratio in rows:
            assert p > 0 and c > 0 and ratio == round(c / p, 3)
    assert set(out["traced_peak_mb"]) == set(bench.PEAK_LAYERS)
    for rows in out["traced_peak_mb"].values():
        assert [n for n, _, _ in rows] == [8, 16]
        assert all(p > 0 and c > 0 for _, p, c in rows)


def test_parent_flag_adds_interleaved_rows(tmp_path, monkeypatch):
    path = tmp_path / "bench.json"
    monkeypatch.setattr(bench, "measure", lambda: {"python": "3", "suite": {
        "wall_s": 1.0, "peak_rss_mb": 3.0}})
    monkeypatch.setattr(bench, "interleaved", lambda seed, parent: {"ns_per_call": {
        "layer": [[8, 2, 1, 0.5]]}})
    bench.main(["--json", str(path), "--parent", str(ROOT)])
    doc = json.loads(path.read_text())
    assert doc["columns"]["change"]["suite"]["wall_s"] == 1.0
    assert doc["interleaved"] == {"python": "3", "seed": bench.SEED,
                                  "ns_per_call": {"layer": [[8, 2, 1, 0.5]]}}


def test_perfbench_trace_targets_resolve():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    assert targets
    for module, function, _ in targets:
        assert callable(getattr(importlib.import_module(f"polytract.{module}"), function))


def test_harness_run_functions_are_run_check_and_run_suite():
    # perfbench/child.py times every other module-level run_* function
    # of the harness as one suite stage.
    runners = {name for name, fn in vars(harness).items()
               if name.startswith("run_") and callable(fn)
               and getattr(fn, "__module__", None) == harness.__name__}
    assert runners == {"run_check", "run_suite"}


@pytest.mark.parametrize("workload", ["small-sweep", "hostile-bytes"])
def test_perfbench_workload_runs_clean(workload):
    # The workloads read catalog fields directly, so a catalog change that
    # breaks one fails here rather than only in the benchmark.
    out = subprocess.run([sys.executable, "perfbench/child.py", workload, "42", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], result["examples"]
