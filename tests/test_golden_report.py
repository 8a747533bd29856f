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
    42: "aed3fd4a337a305d162a339135f5bd6c2f44bce0464a5ae2eabd58cdb3c40d68",
    7: "39cac58cad2a8e1317f3d3383b2311fb228979f0ae6b967c363a954f6507f63f",
}


# The same config at seed 42 under each fault injection. A sabotaged
# witness stage hands no rung to its later reader, so these pin the
# stages that draw and preprocess their own rungs.
GOLDEN_INJECTED = {
    "identity-preprocessing:bds-verdict-bit":
        "89c472ac556d33aaf69860450d80a7c8c12f06a0e0d8ccf223936f2a20d5d4b8",
    "identity-preprocessing:cvp-verdict-bit":
        "20cf075059f6c42a1256dd00218288dfa72958579ca56ce0fef01d53df41f918",
    "identity-preprocessing:wordstats-count-digest":
        "822e3ddea1ee0e473e1d352bb113ba1c101c8c23d628d830a55ac064c433eac0",
}


# The default config at seed 42. Its ladder is the only one here whose
# bds and cvp texts outgrow one chunk of their readers.
GOLDEN_DEFAULT = "6683a6ca924bc7d35f03040f99293793be1d43dd79e217b1ac322574ef28d610"


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
