import ast
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from polytract import bench, catalog, harness
from polytract.problems import bds
from polytract.report import Report

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_layer_ns_covers_every_layer_and_rung():
    out = bench.layer_ns(0, ladder=(8, 16))
    assert "bds.parse_instance" in out and "cvp.parse_circuit" in out
    assert "wordstats.random_corpus_text" in out and "wordstats-count-digest preprocess" in out
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
               Report("witness:bds-verdict-bit").add(
                   "ladder:bds-verdict-bit", True,
                   timings={"workers": {"count": 1, "cpu_ns": 0, "peak_rss_kb": 0}}),
               Report("runtime-fits").add("ok", True).add("slope", False)]
    monkeypatch.setattr(bench, "run_suite", lambda config: harness.SuiteReport(
        environment={}, reports=reports, timings={}))
    record = bench._suite(0)
    assert record["verdict"] == "fail"
    assert record["failed_rows"] == ["runtime-fits/slope"]


def test_suite_record_has_the_ladder_worker_beside_this_process(monkeypatch):
    small = harness.SuiteConfig(ladder=(64, 128, 256, 512), random_budget=10,
                                witness_samples=5)
    reports = []
    monkeypatch.setattr(bench, "run_suite", lambda config: reports.append(harness.run_suite(
        replace(small, seed=config.seed))) or reports[-1])
    record = bench._suite(0)
    assert record["verdict"] == "pass"
    # the workers' usage is the report's, which run_suite read as it
    # reaped them
    workers = next(c.timings["workers"] for r in reports[0].reports for c in r.checks
                   if c.name == "ladder:bds-verdict-bit")
    assert record["worker_peak_rss_mb"] == round(workers["peak_rss_kb"] / 1024, 1) > 0
    assert record["worker_cpu_s"] == round(workers["cpu_ns"] / 1e9, 3)
    assert record["peak_rss_mb"] > 0


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


def test_suite_decides_counts_each_decide_and_each_pair(monkeypatch):
    # A decide in a forked worker counts like one in this process; a pair
    # asked twice, or once with its query as the block's tail, is one
    # pair; a malformed block is a decide but no pair.
    stub = lambda block, query, *bounds: True  # noqa: E731
    monkeypatch.setattr(bds, "block_member", stub)
    monkeypatch.setattr(catalog, "build_catalog", lambda config: SimpleNamespace(
        verdicts={"a": True, "b": False}))

    def fake_suite(config):
        catalog.build_catalog(config)
        pid = os.fork()
        if pid == 0:
            bds.block_member(b"2 0\n0 1\n", b"q1")
            os._exit(0)
        os.waitpid(pid, 0)
        bds.block_member(b"2 0\n0 1\nq1", None)
        bds.block_member(b"2 0\n0 1\n", b"q2")
        bds.block_member(b"no newline", None)

    monkeypatch.setattr(bench, "run_suite", fake_suite)
    out = bench.suite_decides(harness.SuiteConfig())
    assert out == {"block_member_calls": 4, "distinct_pairs": 2, "table_entries": 2}
    assert bds.block_member is stub


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
