"""Pinned stripped-report hashes for suite runs.

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
    42: "8670b1462ff892d1b661481983c232b2f5bb05e857264a3796beab03d897cdd2",
    7: "2a2a417a7ed4327ccf0367e0f431d4b9fb6ea53e05586047e508d0712856383d",
}


# The same config at seed 42 under each fault injection. A sabotaged
# witness stage hands no rung to its later reader, so these pin the
# stages that draw and preprocess their own rungs.
GOLDEN_INJECTED = {
    "identity-preprocessing:bds-verdict-bit":
        "4eb9101f47418e9640c253ca13001c05e98bb553e823d7f701004fc8f2320f23",
    "identity-preprocessing:cvp-verdict-bit":
        "3cdd7ed0e1df4edefe01e28b752ab6b8e18218153a1adf684215ae55511cb062",
    "identity-preprocessing:wordstats-count-digest":
        "533e196eed8741eeada59c4cc8b14f463efce256d2242e27cf1a49173bfdf549",
}


# The default config at seed 42. Its ladder is the only one here whose
# bds and cvp texts outgrow one chunk of their readers.
GOLDEN_DEFAULT = "68bbe59b1d23bb965059bdcc58c23da798839091a0da787c9e06539ee63380ac"


def _stripped_hash(seed: int, inject: tuple[str, ...] = ()) -> str:
    return _config_hash(SuiteConfig(seed=seed, random_budget=25, witness_samples=10,
                                    ladder=(64, 128, 256, 512), inject=inject))


def _config_hash(cfg: SuiteConfig) -> str:
    report = run_suite(cfg).to_dict()
    untimed = [g for g in report["checks"] if g["name"] != "runtime-fits"]
    stripped = dump_json(strip_timings(dict(report, checks=untimed, verdict=None)))
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_stripped_report_hash_is_pinned(seed):
    assert _stripped_hash(seed) == GOLDEN[seed]


@pytest.mark.parametrize("inject", sorted(GOLDEN_INJECTED))
def test_injected_report_hash_is_pinned(inject):
    assert _stripped_hash(42, (inject,)) == GOLDEN_INJECTED[inject]


def test_default_report_hash_is_pinned():
    assert _config_hash(SuiteConfig(seed=42)) == GOLDEN_DEFAULT
