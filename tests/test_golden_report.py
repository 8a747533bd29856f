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
    42: "7c146119a2b7f26c5a09e4d9514c99db90bc76684288dff40a68d95acb5fcc7d",
    7: "0ca5c5136854761bac8a94ef81334f91882cd82cee6d5a9dd096e5fb0f6e94d9",
}


# The same config at seed 42 under each fault injection. A sabotaged
# witness stage hands no rung to its later reader, so these pin the
# stages that draw and preprocess their own rungs.
GOLDEN_INJECTED = {
    "identity-preprocessing:bds-verdict-bit":
        "76c7cad7479fb2a0d6958787bf18f5445db955b7c93cb1d1ad8b97cb1bbff28e",
    "identity-preprocessing:cvp-verdict-bit":
        "f199aa1885643f2a65a9dc277de7d24032287a0de54cd2e0dcde9ad772eaf134",
    "identity-preprocessing:wordstats-count-digest":
        "343959ca2c426a86b0f6a1a619537b564b871dfaeaaa644b99ea8fcec68fb4de",
}


# The default config at seed 42. Its ladder is the only one here whose
# bds and cvp texts outgrow one chunk of their readers.
GOLDEN_DEFAULT = "acdeb9e58e5392d6a6d749b269b89a12b78b038357dc099576c77daced97fd8b"


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
