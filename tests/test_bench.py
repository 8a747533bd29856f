import json

from polytract import bench


def test_layer_ns_covers_every_layer_and_rung():
    out = bench.layer_ns(0, ladder=(8, 16))
    assert "bds.parse_instance" in out and "cvp.parse_circuit" in out
    for rungs in out.values():
        assert [n for n, _ in rungs] == [8, 16]
        assert all(ns > 0 for _, ns in rungs)


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
