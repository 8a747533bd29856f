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
    42: "c21bf68b128eebbdd8144298c4335d0cae037d79813030e8529f5c339674cea5",
    7: "d9f9bc71fbe641cb196cdc50798152852697eec92e8b06871a8143ef9796d406",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_stripped_report_hash_is_pinned(seed):
    cfg = SuiteConfig(seed=seed, random_budget=25, witness_samples=10,
                      ladder=(64, 128, 256, 512))
    report = run_suite(cfg).to_dict()
    untimed = [g for g in report["checks"] if g["name"] != "runtime-fits"]
    stripped = dump_json(strip_timings(dict(report, checks=untimed, verdict=None)))
    assert hashlib.sha256(stripped.encode("utf-8")).hexdigest() == GOLDEN[seed]
