"""Pinned stripped-report hashes for small suite runs.

The hashes cover every check row except the `runtime-fits` group, whose
verdicts judge wall-clock fits, and the overall verdict, which folds
those rows in. A refactor that keeps every other row byte-identical keeps
these hashes; a change that is meant to alter report bytes updates them
and says why.
"""
import hashlib

import pytest

from polytract import SuiteConfig, dump_json, run_suite, strip_timings

GOLDEN = {
    42: "aed3fd4a337a305d162a339135f5bd6c2f44bce0464a5ae2eabd58cdb3c40d68",
    7: "39cac58cad2a8e1317f3d3383b2311fb228979f0ae6b967c363a954f6507f63f",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_stripped_report_hash_is_pinned(seed):
    cfg = SuiteConfig(seed=seed, random_budget=25, witness_samples=10,
                      ladder=(64, 128, 256, 512))
    report = run_suite(cfg).to_dict()
    untimed = [g for g in report["checks"] if g["name"] != "runtime-fits"]
    stripped = dump_json(strip_timings(dict(report, checks=untimed, verdict=None)))
    assert hashlib.sha256(stripped.encode("utf-8")).hexdigest() == GOLDEN[seed]
