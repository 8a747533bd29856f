import gc
import hashlib
import math
import multiprocessing
import os
import random
import re
import signal
import sys
import time
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest

from polytract import bench, catalog, harness
from polytract.catalog import DEFAULT_BOUNDS, INJECTIONS, build_catalog
from polytract.cli import main
from polytract.encoding import Pair, PolylogBound
from polytract.errors import ConfigError, InsufficientData, UnknownProblem
from polytract.harness import (
    SuiteConfig,
    check_config,
    config_echo,
    fit_runtime,
    parse_config,
    run_check,
    run_suite,
    time_interleaved_ns,
)
from polytract.problems import bds, cvp, wordstats
from polytract.report import dump_json, strip_timings


def test_parse_config_full():
    cfg = parse_config(
        """
        # comment line
        seed = 9
        ladder = 64, 128, 256, 512
        random_budget = 17
        lexicon = In, ON, under
        inject = identity-preprocessing:bds-verdict-bit
        exhaustive_cap.bds = 2
        bound.wordstats-count-digest = 4, 1, 9   # trailing comment
        """
    )
    assert cfg.seed == 9
    assert cfg.ladder == (64, 128, 256, 512)
    assert cfg.random_budget == 17
    assert cfg.lexicon == ("in", "on", "under")
    assert cfg.inject == ("identity-preprocessing:bds-verdict-bit",)
    assert cfg.exhaustive_caps["bds"] == 2
    assert cfg.bounds["wordstats-count-digest"] == PolylogBound(4.0, 1, 9.0)


def test_parse_config_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError):
        parse_config("nonsense = 1\n")
    with pytest.raises(ConfigError):
        parse_config("just words\n")
    with pytest.raises(ConfigError):
        parse_config("seed = not-a-number\n")
    for line in ("exhaustive_cap.qbds = 3",
                 "bound.nonsense = 1,1,1",
                 "inject = identity-preprocesing:bds-verdict-bit"):
        with pytest.raises(ConfigError, match="line 2: unknown"):
            parse_config(f"seed = 3\n{line}\n")
    for line in ("lexicon = ,", "lexicon =", "exhaustive_cap.separation = 8"):
        with pytest.raises(ConfigError, match="line 2: "):
            parse_config(f"seed = 3\n{line}\n")


def test_exhaustive_caps_stay_in_range():
    # At 6 the bds enumeration would be about 7 * 10**8 instances.
    for line in ("exhaustive_cap.bds = 6", "exhaustive_cap.bds = -1",
                 "exhaustive_cap.separation = -1"):
        name, _, cap = line.partition(" = ")
        with pytest.raises(ConfigError, match=f"line 1: {name} {cap} exceeds"):
            parse_config(line + "\n")
    cfg = parse_config("exhaustive_cap.bds = 5\nexhaustive_cap.separation = 0\n")
    assert cfg.exhaustive_caps == {"bds": 5, "separation": 0}


# One out-of-range setting each, with the start of its ConfigError. The
# config file and a SuiteConfig built in code must both be refused with
# it; a command-line flag sets its key as a file line does.
OUT_OF_RANGE = [
    ("witness_samples = 0", {"witness_samples": 0}, "witness_samples 0 is below 1"),
    ("witness_samples = -2", {"witness_samples": -2}, "witness_samples -2 is below 1"),
    ("random_budget = -3", {"random_budget": -3}, "random_budget -3 is negative"),
    ("lexicon = ,", {"lexicon": ()}, "lexicon needs at least one word"),
    ("exhaustive_cap.bds = -1", {"exhaustive_caps": {"bds": -1, "separation": 5}},
     "exhaustive_cap.bds -1 exceeds"),
    ("exhaustive_cap.bds = 6", {"exhaustive_caps": {"bds": 6, "separation": 5}},
     "exhaustive_cap.bds 6 exceeds"),
    ("exhaustive_cap.separation = -1", {"exhaustive_caps": {"bds": 3, "separation": -1}},
     "exhaustive_cap.separation -1 exceeds"),
    ("exhaustive_cap.separation = 8", {"exhaustive_caps": {"bds": 3, "separation": 8}},
     "exhaustive_cap.separation 8 exceeds"),
    ("ladder = 512, 1024, 2048", {"ladder": (512, 1024, 2048)}, "ladder needs at least 4"),
    ("ladder = 4096, 1024, 16384, 65536", {"ladder": (4096, 1024, 16384, 65536)},
     "ladder needs at least 4"),
    ("separation_max_n = 1001", {"separation_max_n": 1001}, "separation_max_n 1001 exceeds 1000"),
    ("ladder = 64, 64, 128, 256", {"ladder": (64, 64, 128, 256)}, "ladder needs at least 4"),
    ("ladder = 3, 4, 5, 6", {"ladder": (3, 4, 5, 6)}, "ladder needs at least 4"),
    ("ladder = 0, 1, 2, 3", {"ladder": (0, 1, 2, 3)}, "ladder needs at least 4"),
    ("lexicon = in on", {"lexicon": ("in on",)}, "lexicon word 'in on' is not a single token"),
]


@pytest.mark.parametrize("line, fields, message", OUT_OF_RANGE)
def test_every_way_of_making_a_config_is_range_checked(line, fields, message):
    with pytest.raises(ConfigError, match=f"^line 1: {re.escape(message)}"):
        parse_config(line + "\n")
    cfg = SuiteConfig(**fields)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        check_config(cfg)
    # A config built in code reaches no check body and no catalog.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        run_check(None, cfg, "reduction:bds-identity")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        run_suite(cfg)


# Settings the checker fixes rather than reads from a config: the
# instance mixes are the generators' defaults, the slack and the fit caps
# are constants of preprocessing and harness. A config line that sets one
# is refused as an unknown key, whatever its value.
FIXED_SETTINGS = [
    "slope_slack = inf", "ptime_max_degree = 4", "fit_residual_max = nan", "query_reps = 1",
    "edge_prob = -0.1", "gate_weights = 0,0,0", "preposition_rate = 1.5",
]


@pytest.mark.parametrize("line", FIXED_SETTINGS)
def test_fixed_settings_are_unknown_keys(line, tmp_path, capsys):
    key = line.partition(" = ")[0]
    assert key not in {f.name for f in fields(SuiteConfig)}
    with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
        parse_config(line + "\n")
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(line + "\n")
    assert main(["run-suite", "--config", str(cfg)]) == 2
    assert f"line 1: unknown key '{key}'" in capsys.readouterr().err


def test_readme_example_config_names_every_key():
    # The ini block under "Configuration files" parses, and sets every key
    # apply_key takes by name: each field but the two dotted tables.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    parse_config(block)
    keys = {line.split("#", 1)[0].partition("=")[0].strip() for line in block.splitlines()}
    named = {f.name for f in fields(SuiteConfig)} - {"exhaustive_caps", "bounds"}
    assert named <= keys
    assert any(k.startswith("exhaustive_cap.") for k in keys)
    assert any(k.startswith("bound.") for k in keys)


@pytest.mark.parametrize("bound", ["nan,0,1", "0,0,nan", "inf,2,0", "1,2,inf"])
def test_bound_coefficients_must_be_finite(bound):
    # A NaN query bound made the qbds short-query row pass where 0,0,1
    # fails it; a NaN separation bound was written into the JSON report.
    # A bound is refused when it is built, so no config can hold one.
    for name in ("qbds-query", "separation"):
        with pytest.raises(ConfigError, match="^line 1: coefficients must be finite"):
            parse_config(f"bound.{name} = {bound}\n")


def test_exhaustive_caps_built_in_code_must_name_both():
    for caps in ({"bds": 3}, {"bds": 3, "separation": 5, "qbds": 1}):
        with pytest.raises(ConfigError, match="^exhaustive caps must be bds, separation"):
            check_config(SuiteConfig(exhaustive_caps=caps))


def test_lexicon_words_built_in_code_must_be_single_tokens():
    # Corpora are split on whitespace, so such a word never occurs. No
    # config file gives these: it drops empty words and strips the rest.
    for word in ("", " on"):
        with pytest.raises(ConfigError, match=f"^lexicon word {re.escape(repr(word))} is not"):
            check_config(SuiteConfig(lexicon=("in", word)))


def test_lexicon_words_built_in_code_must_be_lowercase():
    # Corpora are lowercased, so such a word is never counted. A config
    # file lowercases the words it gives.
    for word in ("In", "ON"):
        with pytest.raises(ConfigError, match=f"^lexicon word '{word}' is not lowercase"):
            check_config(SuiteConfig(lexicon=("on", word)))
    assert parse_config("lexicon = In, on\n").lexicon == ("in", "on")


def test_smallest_budgets_and_shipped_configs_are_legal():
    for cfg in (SuiteConfig(random_budget=0, witness_samples=1), SuiteConfig(),
                SuiteConfig(random_budget=25, witness_samples=10),
                SuiteConfig(random_budget=120), SuiteConfig(random_budget=60, witness_samples=30),
                SuiteConfig(ladder=(4, 5, 6, 7))):
        check_config(cfg)
    assert parse_config("random_budget = 0\nwitness_samples = 1\n").witness_samples == 1


def test_build_catalog_rejects_unknown_injection():
    # A config built in code skips parse_config, so the catalog checks too.
    misspelled = "identity-preprocesing:bds-verdict-bit"
    with pytest.raises(ConfigError, match=f"unknown inject entry '{misspelled}'"):
        build_catalog(SuiteConfig(inject=(misspelled,)))
    cat = build_catalog(SuiteConfig(inject=("identity-preprocessing:bds-verdict-bit",)))
    assert cat.witnesses["bds-verdict-bit"].witness.preprocess(b"abc") == b"abc"


@pytest.mark.parametrize("inject", INJECTIONS)
def test_each_injection_swaps_only_its_own_preprocessing(inject):
    plain = build_catalog(SuiteConfig())
    cat = build_catalog(SuiteConfig(inject=(inject,)))
    swapped = inject.removeprefix("identity-preprocessing:")
    assert cat.witnesses.keys() == plain.witnesses.keys()
    # a few pairs of each witness's own samples, and bytes of no format
    pairs = [Pair(b"", b""), Pair(b"not a graph", b"in 1")]
    for entry in plain.witnesses.values():
        pos, neg = entry.sample_pairs(5, 2)
        pairs += pos + neg
    for name, entry in cat.witnesses.items():
        witness, before = entry.witness, plain.witnesses[name].witness
        assert witness.output_bound == before.output_bound
        assert witness.post_language.name == before.post_language.name
        assert witness.post_language.short_query_bound == before.post_language.short_query_bound
        for pair in pairs:
            digest = before.preprocess(pair.data)
            assert witness.preprocess(pair.data) == (pair.data if name == swapped else digest)
            assert (witness.post_language.membership(digest, pair.query)
                    == before.post_language.membership(digest, pair.query))


def test_parse_config_does_not_mutate_base():
    base = SuiteConfig()
    parse_config("exhaustive_cap.bds = 1\nbound.qbds-query = 1,1,1\n", base)
    assert base.exhaustive_caps["bds"] != 1 or "qbds-query" not in base.bounds or \
        base.bounds["qbds-query"] != PolylogBound(1.0, 1, 1.0)


def _as_config_text(echo: dict) -> str:
    """Render a config echo as the key = value lines parse_config reads."""
    dotted = {"exhaustive_caps": "exhaustive_cap", "bounds": "bound"}
    lines = []
    for key, value in echo.items():
        if key in dotted:
            for name, v in value.items():
                m = re.fullmatch(r"(.+)\*log2\(n\)\^(\d+)\+(.+)", str(v))
                lines.append(f"{dotted[key]}.{name} = {','.join(m.groups()) if m else v}")
        elif isinstance(value, list):
            lines.append(f"{key} = {', '.join(map(str, value))}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_config_echo_round_trips_through_parse_config():
    bounds = {name: PolylogBound(float(i + 1), i % 3, 2.5) for i, name in
              enumerate((*DEFAULT_BOUNDS, "separation"))}
    cfg = SuiteConfig(
        seed=7, ladder=(64, 128, 256, 512), random_budget=17, witness_samples=9,
        lexicon=("in", "under"), exhaustive_caps={"bds": 2, "separation": 4},
        separation_max_n=9, bounds=bounds, inject=INJECTIONS[1:],
        output_path="report.json")
    default = SuiteConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    # The echo leaves out the output path, which no check reads.
    text = _as_config_text(config_echo(cfg)) + f"output_path = {cfg.output_path}\n"
    assert parse_config(text) == cfg


def test_config_echo_is_json_friendly():
    import json
    echo = config_echo(SuiteConfig())
    json.dumps(echo)
    assert echo["seed"] == 42
    assert echo["bounds"]["cvp-verdict-bit"] == "0.0*log2(n)^0+1.0"


def test_fit_runtime_recovers_quadratic():
    points = [(n, 3 * n * n) for n in (64, 256, 1024, 4096, 16384)]
    fit = fit_runtime(points, "poly-n")
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.residual < 1e-9


def test_fit_runtime_recovers_cubic_in_log():
    points = [(n, int(5 * math.log2(n) ** 3)) for n in (2**10, 2**12, 2**15, 2**18, 2**20)]
    fit = fit_runtime(points, "poly-log-n")
    assert fit.exponent == pytest.approx(3.0, abs=0.05)


def test_fit_runtime_constant_series():
    fit = fit_runtime([(n, 500) for n in (8, 16, 32, 64)], "poly-n")
    assert fit.exponent == 0.0


def test_fit_runtime_needs_enough_increasing_points():
    with pytest.raises(InsufficientData):
        fit_runtime([(8, 1), (16, 2), (32, 3)], "poly-n")
    with pytest.raises(InsufficientData):
        fit_runtime([(8, 1), (16, 2), (16, 3), (32, 4)], "poly-n")
    # log2 of every size is floored at 2, so these sizes share one x
    with pytest.raises(InsufficientData, match="one x value"):
        fit_runtime([(1, 10), (2, 20), (3, 40), (4, 80)], "poly-log-n")
    with pytest.raises(ValueError):
        fit_runtime([(8, 1), (16, 2), (32, 3), (64, 4)], "exp-n")


def test_fit_runtime_tolerates_noise():
    rng = random.Random(6)
    points = [(n, int(n * n * rng.uniform(0.9, 1.1))) for n in (64, 256, 1024, 4096)]
    fit = fit_runtime(points, "poly-n")
    assert abs(fit.exponent - 2.0) < 0.15


def test_time_interleaved_ns_orders_costs():
    def cheap():
        pass

    def costly():
        sum(range(400))

    floors = time_interleaved_ns([(cheap, [()] * 50), (costly, [()] * 50)])
    assert len(floors) == 2
    assert 0 < floors[0] < floors[1]


def test_cvp_latency_probes_cover_both_verdicts():
    cfg = SuiteConfig()
    cat = build_catalog(cfg)
    entry = cat.witnesses["cvp-verdict-bit"]
    for size in (16, 64, 256):
        probes = entry.ladder_gen(size, cfg.seed)
        digests = {entry.witness.preprocess(x) for x in probes}
        assert digests == {b"0", b"1"}


SMALL = SuiteConfig(random_budget=25, witness_samples=10)


def test_reduction_checks_small_budget():
    # Every catalog reduction, the identity ones too: the suite runs only
    # the reductions whose maps are not identities.
    cat = build_catalog(SMALL)
    names = [*cat.fcr_reductions, *cat.f_reductions]
    assert len(names) == 5
    for name in names:
        assert run_check(cat, SMALL, f"reduction:{name}").passed


def test_composition_checks_small_budget():
    cat = build_catalog(SMALL)
    rep = run_check(cat, SMALL, "compositions")
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert any(n.startswith("constants:") for n in names)


def test_hardness_check_small_budget():
    cat = build_catalog(SMALL)
    assert run_check(cat, SMALL, "hardness-pack").passed


def test_hardness_sabotage_is_reported_row_by_row():
    # A many-one map that breaks membership fails the hardness stage with
    # one iff row per failing pair.
    cat = build_catalog(SMALL)
    absorb = cat.factored["qbds-absorb"]
    cat.factored["qbds-absorb"] = replace(absorb, fact=replace(
        absorb.fact, data_part=lambda y: absorb.fact.data_part(y) + b"x"))
    rep = run_check(cat, SMALL, "hardness-pack")
    assert not rep.passed
    failing = [c.name for c in rep.checks if not c.passed]
    assert failing[0] == "iff-equivalence"
    assert failing[1] == "pair[0].iff"
    assert all(re.fullmatch(r"pair(\[\d+\]\.iff|\.overflow)", n) for n in failing[1:])


def test_short_query_checks_small_budget():
    cat = build_catalog(SMALL)
    assert run_check(cat, SMALL, "short-query").passed


def test_separation_row_needs_some_n_from_4():
    for max_n, passed in ((0, False), (3, False), (4, True)):
        rep = run_check(build_catalog(SuiteConfig()), SuiteConfig(separation_max_n=max_n),
                        "separation")
        row = next(c for c in rep.checks if c.name == "factorial-beats-2^n-from-4")
        assert row.passed is passed


def test_run_check_rejects_unknown_names():
    cat = build_catalog(SMALL)
    for stage in ("no-such-check", "witness:no-such-witness", "frobnicate:bds"):
        with pytest.raises(UnknownProblem):
            run_check(cat, SMALL, stage)


# Small budgets and a short 4-rung ladder for the bds rung hand-off.
HANDOFF = replace(SMALL, ladder=(64, 128, 256, 512))


def _calls(monkeypatch, module, name: str, keep=lambda first: True) -> list:
    """Make module.name append its first argument to the returned list on
    every call whose first argument keep accepts."""
    calls = []
    fn = getattr(module, name)

    def counted(first, *args, **kwargs):
        if keep(first):
            calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_sparse_draws(monkeypatch) -> list:
    """Make bds.random_sparse_instance append to the returned list per call."""
    return _calls(monkeypatch, bds, "random_sparse_instance")


def _log_calls(monkeypatch, tmp_path, module, name: str, describe=repr):
    """Make module.name append its process id and describe(first
    argument) to a file on every call, in this process and in the
    workers it forks; return a function that reads the (pid,
    description) pairs logged so far."""
    log = tmp_path / f"{name}.log"
    log.touch()
    fn = getattr(module, name)

    def logged(first, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {describe(first)}\n")
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return lambda: [tuple(line.split(" ", 1)) for line in log.read_text().splitlines()]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def test_suite_draws_each_bds_rung_once(monkeypatch, tmp_path):
    # The rungs are drawn in forked worker processes, whose calls no list
    # of this process sees, so every draw logs its process id and size.
    calls = _count_sparse_draws(monkeypatch)
    draws = _log_calls(monkeypatch, tmp_path, bds, "random_sparse_instance", str)
    run_suite(HANDOFF)
    logged = draws()
    # two instances per rung, drawn once by a worker and taken from the
    # catalog by witness:bds-verdict-bit and witness-transfer
    assert sorted(int(n) for _, n in logged) == sorted(2 * HANDOFF.ladder)
    assert len({pid for pid, _ in logged}) <= min(len(HANDOFF.ladder), _usable_cpus())
    # this process draws no rung
    assert calls == []
    assert str(os.getpid()) not in {pid for pid, _ in logged}


def test_rungs_are_dealt_largest_first_to_the_lightest_share():
    assert harness._deal(harness.DEFAULT_LADDER, 2) == [[65536], [16384, 4096, 1024]]
    assert harness._deal(HANDOFF.ladder, 1) == [[512, 256, 128, 64]]
    assert harness._deal((4, 5, 6, 7), 4) == [[7], [6], [5], [4]]


def _untimed_fits(monkeypatch) -> None:
    """Give every timed task the same floor, so the fitted rows pass
    whatever the host's noise: their verdicts are not what the test is
    about."""
    monkeypatch.setattr(harness, "time_interleaved_ns", lambda tasks: [1000.0] * len(tasks))


@pytest.mark.parametrize("cpus", [1, 3, 16])
def test_ladder_workers_are_one_per_usable_cpu_at_most(cpus, monkeypatch, tmp_path):
    from polytract.worker import Worker

    config = replace(HANDOFF, ladder=tuple(range(16, 64, 4)))
    assert len(config.ladder) == 12
    forked = []
    start = Worker.__init__

    def counted(worker, fn, *args):
        start(worker, fn, *args)
        forked.append(str(worker.pid))

    monkeypatch.setattr(Worker, "__init__", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    _untimed_fits(monkeypatch)
    draws = _log_calls(monkeypatch, tmp_path, bds, "random_sparse_instance", str)
    assert run_suite(config).passed
    assert len(forked) == min(12, cpus)
    # each rung drawn in exactly one worker, and every worker draws
    drawers = {}
    for pid, n in draws():
        drawers.setdefault(int(n), []).append(pid)
    assert sorted(drawers) == list(config.ladder)
    assert all(len(pids) == 2 and len(set(pids)) == 1 for pids in drawers.values())
    assert {pids[0] for pids in drawers.values()} == set(forked)


def test_one_usable_cpu_gives_the_same_report(monkeypatch):
    _untimed_fits(monkeypatch)
    default = dump_json(strip_timings(run_suite(HANDOFF).to_dict()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert dump_json(strip_timings(run_suite(HANDOFF).to_dict())) == default


def test_the_suite_decides_no_rung_in_this_process(monkeypatch):
    ladder_gen = build_catalog(HANDOFF).witnesses["bds-verdict-bit"].ladder_gen
    blocks = [bds.split_block_tail(x)[0]
              for size in HANDOFF.ladder for x in ladder_gen(size, HANDOFF.seed)]
    # block_member is asked with a whole instance or with its block
    decided = _calls(monkeypatch, bds, "block_member")

    def rungs_decided() -> int:
        return sum(first.startswith(block) for first in decided for block in blocks)

    run_suite(HANDOFF)
    # this process decides its samples, but no rung
    assert decided and rungs_decided() == 0
    run_check(build_catalog(HANDOFF), HANDOFF, "witness:bds-verdict-bit")
    # a check run alone decides its rungs in place
    assert rungs_decided() == len(blocks)


def test_the_workers_time_lands_in_the_bds_ladder_row(monkeypatch):
    # The smallest rung a helper decides, and the helpers HANDOFF's
    # ladder then forks: none at the default, one per rung of at least
    # that size.
    for nodes, helpers in [(harness._HELPER_NODES, 0), (256, 2), (0, 4)]:
        monkeypatch.setattr(harness, "_HELPER_NODES", nodes)
        report = run_suite(HANDOFF)
        witness = next(r for r in report.reports if r.name == "witness:bds-verdict-bit")
        row = next(c for c in witness.checks if c.name == "ladder:bds-verdict-bit")
        rungs, workers = row.timings["rungs"], row.timings["workers"]
        assert len(rungs) == len(HANDOFF.ladder)
        assert all(rung["draw_ns"] > 0 and rung["decide_ns"] > 0 for rung in rungs)
        assert workers["count"] == min(len(HANDOFF.ladder), _usable_cpus())
        assert workers["cpu_ns"] > 0 and workers["peak_rss_kb"] > 0
        assert workers["helpers"] == helpers
        # all of it under the row's timings, so a stripped report has none of it
        assert "timings" not in strip_timings(row.to_dict())
        # and SuiteReport.timings stays one number per entry
        assert all(isinstance(v, int) for v in report.timings.values())


def test_worker_draws_are_the_catalog_draws(monkeypatch):
    cat = _suite_catalog(monkeypatch, HANDOFF)
    assert {f"bds-ladder:{size}" for size in HANDOFF.ladder} <= set(cat.drawn)
    for size in HANDOFF.ladder:
        stream = f"bds-ladder:{size}"
        inline = build_catalog(HANDOFF)
        inline.witnesses["bds-verdict-bit"].ladder_gen(size, HANDOFF.seed)
        seed, rng, values = cat.drawn[stream]
        kept_seed, kept_rng, kept = inline.drawn[stream]
        # the worker's entry: the same bytes and the same rng state
        assert (seed, values) == (kept_seed, kept)
        assert rng.getstate() == kept_rng.getstate()
        # so the stream goes on alike
        assert bds.random_sparse_instance(size, rng) == bds.random_sparse_instance(
            size, kept_rng)


def test_the_wait_for_the_worker_is_charged_to_draw_samples(monkeypatch, tmp_path):
    from polytract.worker import Worker

    # The join's read of a result makes a file; each worker's first
    # ladder draw waits for it, then sleeps 0.5 s, so the join waits at
    # least that long.
    joined = tmp_path / "joined"
    result, draw = Worker.result, bds.random_sparse_instance
    slept = []

    def join(worker):
        joined.touch()
        return result(worker)

    def slow(n, rng):
        if not slept:
            while not joined.exists():
                time.sleep(0.005)
            time.sleep(0.5)
            slept.append(n)
        return draw(n, rng)

    monkeypatch.setattr(Worker, "result", join)
    monkeypatch.setattr(bds, "random_sparse_instance", slow)
    timings = run_suite(HANDOFF).timings
    assert timings["draw-samples"] >= 0.5e9
    assert timings["witness:bds-verdict-bit"] < 0.5e9


class DrawFailed(Exception):
    """Raised by a sabotaged ladder draw in the worker process."""


def _no_process_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_passing_suite_leaves_no_process(monkeypatch):
    _untimed_fits(monkeypatch)
    assert run_suite(HANDOFF).passed
    _no_process_left()


def test_a_failing_stage_leaves_no_process(monkeypatch):
    def stuck(n, rng):
        time.sleep(60)

    def failed(cat, config):
        raise ConfigError("stage failed")

    # The worker is still drawing when a main-lane stage raises: it is
    # killed, not waited for.
    monkeypatch.setattr(bds, "random_sparse_instance", stuck)
    monkeypatch.setitem(harness._CHECKS, "separation", failed)
    t0 = time.monotonic()
    with pytest.raises(ConfigError, match="stage failed"):
        run_suite(HANDOFF)
    assert time.monotonic() - t0 < 30
    _no_process_left()


def test_a_failing_worker_draw_reaches_the_caller(monkeypatch):
    def failed(n, rng):
        raise DrawFailed(f"no rung of {n} nodes")

    monkeypatch.setattr(bds, "random_sparse_instance", failed)
    # The join reads the workers in the order they were forked. The first
    # holds the largest rung, whichever the CPU count, and draws it first.
    with pytest.raises(DrawFailed, match="no rung of 512 nodes"):
        run_suite(HANDOFF)
    _no_process_left()


class DecideFailed(Exception):
    """Raised by a sabotaged decide in a ladder worker's helper."""


@pytest.fixture
def alarm():
    """Raise TimeoutError in the test if it runs for more than 60 s, so a
    process test that hangs fails instead."""
    def expired(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _ended(pid: int) -> bool:
    """Whether process `pid` is gone, or a zombie no reaper has collected."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except (ProcessLookupError, FileNotFoundError):
        return True


def test_a_failing_helper_decide_reaches_the_caller(monkeypatch, alarm):
    def failed(instances):
        raise DecideFailed(f"no verdict for {len(instances)} instance")

    monkeypatch.setattr(harness, "_HELPER_NODES", 0)
    monkeypatch.setattr(harness, "_decide", failed)
    with pytest.raises(DecideFailed, match="no verdict for 1 instance"):
        run_suite(HANDOFF)
    _no_process_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux only")
def test_a_failing_stage_ends_a_deciding_helper(monkeypatch, tmp_path, alarm):
    # A helper is its worker's child, not this process's: killing the
    # worker ends it through the parent-death signal, so the test reads
    # the helpers' pids from files they write.
    def stuck(instances):
        (tmp_path / str(os.getpid())).touch()
        time.sleep(60)

    def failed(cat, config):
        while not any(tmp_path.iterdir()):
            time.sleep(0.005)
        raise ConfigError("stage failed")

    monkeypatch.setattr(harness, "_HELPER_NODES", 0)
    monkeypatch.setattr(harness, "_decide", stuck)
    monkeypatch.setitem(harness._CHECKS, "separation", failed)
    with pytest.raises(ConfigError, match="stage failed"):
        run_suite(HANDOFF)
    _no_process_left()
    helpers = [int(path.name) for path in tmp_path.iterdir()]
    deadline = time.monotonic() + 15
    while not all(map(_ended, helpers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert helpers and all(map(_ended, helpers))


def test_helpers_change_no_byte_and_decide_each_pair_once(monkeypatch):
    _untimed_fits(monkeypatch)
    default = dump_json(strip_timings(run_suite(HANDOFF).to_dict()))
    # every rung forks a helper
    monkeypatch.setattr(harness, "_HELPER_NODES", 0)
    assert dump_json(strip_timings(run_suite(HANDOFF).to_dict())) == default
    # the helpers are forks too, so suite_decides counts their decides
    out = bench.suite_decides(HANDOFF)
    assert out["block_member_calls"] == out["distinct_pairs"] == out["table_entries"] > 0


def test_suite_decides_each_bds_pair_once(monkeypatch, tmp_path):
    # The rungs are decided in the workers, so suite_decides counts the
    # decides of every process, and bds_member logs its calls in
    # whichever process they run.
    members = _log_calls(monkeypatch, tmp_path, bds, "bds_member", len)
    decide = bds.block_member
    out = bench.suite_decides(HANDOFF)
    # every bds decide of the run goes through the catalog's table: one
    # decide per table entry, one entry per pair asked about
    assert members() == []
    assert out["block_member_calls"] == out["distinct_pairs"] == out["table_entries"] > 0
    assert bds.block_member is decide


def test_wordstats_witness_check_counts_each_corpus_once(monkeypatch):
    counted = _calls(monkeypatch, wordstats, "lexicon_counts")
    cat = build_catalog(HANDOFF)
    assert run_check(cat, HANDOFF, "witness:wordstats-count-digest").passed
    # the oracle reads a corpus on its first in-lexicon query and takes
    # every later query on it from the count table
    pos, neg = cat.witnesses["wordstats-count-digest"].sample_pairs(
        HANDOFF.seed, HANDOFF.witness_samples)
    asked = {pair.data for pair in pos + neg
             if wordstats.lexicon_query(pair.query, HANDOFF.lexicon) is not None}
    assert len(counted) == len(set(counted)) == len(asked) == len(cat.counts) > 0
    assert set(counted) == asked
    assert {(type(key), len(key)) for key in cat.counts} == {(bytes, 16)}


def test_runtime_fits_times_the_whole_digest_kernel(monkeypatch):
    cat = build_catalog(HANDOFF)
    assert run_check(cat, HANDOFF, "witness:wordstats-count-digest").passed
    name, rungs = "wordstats-count-digest", len(HANDOFF.ladder)
    firsts = [cat.held[name, size, HANDOFF.seed][0] for size in HANDOFF.ladder]
    # the digest table already holds every rung's corpus
    assert all(hashlib.blake2b(corpus, digest_size=16).digest() in cat.digests
               for corpus in firsts)
    kernel = _calls(monkeypatch, wordstats, "count_digest")
    tallied = _calls(monkeypatch, wordstats, "preposition_digest")
    run_check(cat, HANDOFF, "runtime-fits")
    # one warm-up and seven timed sweeps, each digesting every rung's
    # first corpus in full: tokenized and tallied, none read from a table
    assert sorted(kernel) == sorted(firsts * 8)
    assert sorted(len(corpus.words) for corpus in tallied) == sorted(
        len(text.split()) for text in firsts * 8)
    assert len(tallied) == 8 * rungs

    # Run alone, the stage digests each rung through the table first.
    kernel.clear()
    lone = build_catalog(HANDOFF)
    run_check(lone, HANDOFF, "runtime-fits")
    assert len(kernel) == 8 * rungs + len(lone.digests) == 10 * rungs


def test_default_suite_tables_hold_keys_and_bounded_digests(monkeypatch):
    built, lengths = [], {}
    build, kernel = catalog.build_catalog, wordstats.count_digest

    def kept(config):
        built.append(build(config))
        return built[-1]

    def measured(text, lexicon):
        lengths[hashlib.blake2b(text, digest_size=16).digest()] = len(text)
        return kernel(text, lexicon)

    monkeypatch.setattr(catalog, "build_catalog", kept)
    monkeypatch.setattr(wordstats, "count_digest", measured)
    assert run_suite(SuiteConfig()).passed
    cat = built[0]
    # every table holds 16-byte keys only, no instance bytes
    for table in (cat.verdicts, cat.counts, cat.digests):
        assert table and {(type(key), len(key)) for key in table} == {(bytes, 16)}
    bound = cat.witnesses["wordstats-count-digest"].witness.output_bound
    assert all(len(digest) <= bound(lengths[key]) for key, digest in cat.digests.items())


def test_run_suite_frees_its_catalog_by_refcount(monkeypatch):
    built = []

    def watched(config):
        cat = build(config)
        built.append(weakref.ref(cat))
        return cat

    build = catalog.build_catalog
    monkeypatch.setattr(catalog, "build_catalog", watched)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_suite(HANDOFF)
        # nothing of the run refers to its catalog, and no cycle holds it
        assert built[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_both_bds_ladder_stages_leave_no_rung_held(monkeypatch):
    calls = _count_sparse_draws(monkeypatch)
    cat = build_catalog(HANDOFF)
    run_check(cat, HANDOFF, "witness:bds-verdict-bit")
    # the catalog keeps the rungs it drew, so the stage holds none
    assert cat.held == {}
    run_check(cat, HANDOFF, "witness-transfer")
    assert cat.held == {}
    assert len(calls) == 2 * len(HANDOFF.ladder)


def test_lone_transfer_check_matches_its_suite_stage(monkeypatch):
    suite = run_suite(HANDOFF)
    calls = _count_sparse_draws(monkeypatch)
    lone = run_check(build_catalog(HANDOFF), HANDOFF, "witness-transfer")
    # the lone stage has no witness stage to take rungs from
    assert len(calls) == 2 * len(HANDOFF.ladder)
    in_suite = next(r for r in suite.reports if r.name == "witness-transfer")
    assert strip_timings(lone.to_dict()) == strip_timings(in_suite.to_dict())


def test_held_on_an_empty_catalog_draws_its_own_rung(monkeypatch):
    decided = _calls(monkeypatch, bds, "block_member")
    cat = build_catalog(HANDOFF)
    size = HANDOFF.ladder[0]
    # a bds rung has no entry: an empty catalog draws it, deciding nothing
    assert "bds-verdict-bit" not in harness._HANDOFF
    rung = cat.witnesses["bds-verdict-bit"].ladder_gen(size, HANDOFF.seed)
    assert rung == build_catalog(HANDOFF).witnesses["bds-verdict-bit"].ladder_gen(
        size, HANDOFF.seed)
    assert decided == []
    # the cvp entry is the one the witness stage holds
    lone = harness._held(cat, HANDOFF, "cvp-verdict-bit", size)
    run_check(cat, HANDOFF, "witness:cvp-verdict-bit")
    assert lone == cat.held["cvp-verdict-bit", size, HANDOFF.seed]
    assert harness._held(cat, HANDOFF, "cvp-verdict-bit", size) == lone
    assert ("cvp-verdict-bit", size, HANDOFF.seed) not in cat.held


def test_lone_transfer_check_holds_nothing():
    cat = build_catalog(HANDOFF)
    run_check(cat, HANDOFF, "witness-transfer")
    assert cat.held == {}


def test_ladder_generators_are_pure_draws():
    cat = build_catalog(HANDOFF)
    for name, entry in cat.witnesses.items():
        first = entry.ladder_gen(64, 1)
        second = entry.ladder_gen(64, 1)
        assert first == second and first is not second, name
        first.clear()
        assert entry.ladder_gen(64, 1) == second, name
    assert cat.held == {}


def test_injected_bds_witness_hands_over_no_rung(monkeypatch):
    config = replace(HANDOFF, inject=("identity-preprocessing:bds-verdict-bit",))
    lone = run_check(build_catalog(config), config, "witness-transfer")
    calls = _count_sparse_draws(monkeypatch)
    cat = build_catalog(config)
    run_check(cat, config, "witness:bds-verdict-bit")
    assert cat.held == {}
    calls.clear()
    after = run_check(cat, config, "witness-transfer")
    # every identity digest is over the bound, but the catalog kept the
    # rungs, so witness-transfer draws none
    assert calls == []
    assert strip_timings(after.to_dict()) == strip_timings(lone.to_dict())


# The cvp and wordstats rung digests handed to runtime-fits.


def _count_ladder_circuits(monkeypatch) -> list:
    """Make cvp.random_circuit append the size of each HANDOFF ladder
    circuit it draws to the returned list."""
    return _calls(monkeypatch, cvp, "random_circuit", HANDOFF.ladder.__contains__)


def _count_ladder_corpora(monkeypatch) -> list:
    """Make wordstats.random_corpus_text append the size of each HANDOFF
    ladder corpus it draws to the returned list."""
    return _calls(monkeypatch, wordstats, "random_corpus_text", HANDOFF.ladder.__contains__)


def _record_fit_inputs(monkeypatch) -> list:
    """Make runtime-fits append what it times and fits to the returned
    list: each time_interleaved_ns call's arguments, each fit_runtime
    call's sizes."""
    seen = []
    timed, fitted = harness.time_interleaved_ns, harness.fit_runtime

    def time_recorded(tasks):
        seen.append(("timed", [calls for _, calls in tasks]))
        return timed(tasks)

    def fit_recorded(measurements, model="poly-n"):
        seen.append(("fitted", model, [size for size, _ in measurements]))
        return fitted(measurements, model)

    monkeypatch.setattr(harness, "time_interleaved_ns", time_recorded)
    monkeypatch.setattr(harness, "fit_runtime", fit_recorded)
    return seen


def _suite_catalog(monkeypatch, config) -> catalog.Catalog:
    """Run the suite and return its catalog."""
    built = []

    def kept(cfg):
        built.append(build_catalog(cfg))
        return built[-1]

    monkeypatch.setattr(catalog, "build_catalog", kept)
    run_suite(config)
    return built[0]


def test_suite_decides_each_cvp_rung_once(monkeypatch):
    calls = _count_ladder_circuits(monkeypatch)
    cat = _suite_catalog(monkeypatch, HANDOFF)
    # one circuit per rung, drawn for witness:cvp-verdict-bit, whose
    # digests runtime-fits reads
    assert sorted(calls) == sorted(HANDOFF.ladder)
    assert cat.held == {}


def test_witness_stages_hold_the_fit_rungs_digests():
    cat = build_catalog(HANDOFF)
    for name in cat.witnesses:
        run_check(cat, HANDOFF, f"witness:{name}")
    fitted = ("cvp-verdict-bit", "wordstats-count-digest")
    assert sorted(cat.held) == sorted(
        (name, size, HANDOFF.seed) for name in fitted for size in HANDOFF.ladder)
    for name, first in zip(fitted, (len, bytes)):
        entry = cat.witnesses[name]
        for size in HANDOFF.ladder:
            rung = entry.ladder_gen(size, HANDOFF.seed)
            assert cat.held[name, size, HANDOFF.seed] == (
                first(rung[0]), [entry.witness.preprocess(x) for x in rung])
    run_check(cat, HANDOFF, "runtime-fits")
    assert cat.held == {}


def test_lone_fit_check_times_what_its_suite_stage_times(monkeypatch):
    seen = _record_fit_inputs(monkeypatch)
    run_suite(HANDOFF)
    in_suite = list(seen)
    seen.clear()
    calls = _count_ladder_circuits(monkeypatch)
    corpora = _count_ladder_corpora(monkeypatch)
    run_check(build_catalog(HANDOFF), HANDOFF, "runtime-fits")
    # the lone stage draws and decides its own cvp rungs and draws its
    # own corpora
    assert sorted(calls) == sorted(HANDOFF.ladder)
    assert sorted(corpora) == sorted(2 * HANDOFF.ladder)
    assert [kind for kind, *_ in seen] == ["timed", "fitted"] * 3
    assert seen == in_suite


def test_oversized_digests_are_not_held(monkeypatch):
    config = replace(HANDOFF, inject=("identity-preprocessing:cvp-verdict-bit",))
    calls = _count_ladder_circuits(monkeypatch)
    cat = build_catalog(config)
    run_check(cat, config, "witness:cvp-verdict-bit")
    assert cat.held == {}
    run_check(cat, config, "runtime-fits")
    # runtime-fits draws its own rungs, since the witness stage held none
    assert sorted(calls) == sorted(2 * HANDOFF.ladder)


def test_injected_wordstats_witness_hands_over_no_corpus(monkeypatch):
    config = replace(HANDOFF, inject=("identity-preprocessing:wordstats-count-digest",))
    corpora = _count_ladder_corpora(monkeypatch)
    cat = build_catalog(config)
    run_check(cat, config, "witness:wordstats-count-digest")
    assert cat.held == {}
    seen = _record_fit_inputs(monkeypatch)
    run_check(cat, config, "runtime-fits")
    # runtime-fits draws its own corpora and times the digest kernel on
    # the first of each rung
    assert sorted(corpora) == sorted(4 * HANDOFF.ladder)
    entry = cat.witnesses["wordstats-count-digest"]
    assert seen[0] == ("timed", [[(entry.ladder_gen(size, config.seed)[0], config.lexicon)]
                                 for size in HANDOFF.ladder])


# The sample streams several stages read, drawn once per suite run.


def test_suite_draws_each_sample_stream_once(monkeypatch):
    draws = {name: _calls(monkeypatch, module, name) for module, name in (
        (bds, "random_instance"), (cvp, "random_circuit"), (wordstats, "random_corpus_text"))}
    cat = _suite_catalog(monkeypatch, SuiteConfig())
    # 200 bds-random draws read by six stages, plus 160 from two
    # streams one stage each reads; 200 cvp-pairs draws; each wordstats
    # ladder corpus drawn once
    assert {name: len(calls) for name, calls in draws.items()} == {
        "random_instance": 360, "random_circuit": 457, "random_corpus_text": 33}
    assert cat.held == {}


def test_each_sample_stream_is_drawn_by_the_first_stage_that_reads_it(monkeypatch):
    drawn = {}
    check = harness.run_check

    def recorded(cat, config, stage):
        drawn[stage] = set(cat.drawn)
        return check(cat, config, stage)

    monkeypatch.setattr(harness, "run_check", recorded)
    run_suite(HANDOFF)
    # nothing is drawn before the first stage
    lane = harness._MAIN_LANE
    assert drawn[lane[0]] == set()
    for stream, reader in (("bds-random", "factorization:bds-all-data"),
                           ("cvp-pairs", "reduction:cvp-double-negation")):
        after = lane[lane.index(reader) + 1]
        assert stream not in drawn[reader] and stream in drawn[after]


def test_the_cvp_witness_runs_last_in_the_main_lane(monkeypatch):
    ran = []
    check = harness.run_check

    def recorded(cat, config, stage):
        ran.append(stage)
        return check(cat, config, stage)

    monkeypatch.setattr(harness, "run_check", recorded)
    report = run_suite(HANDOFF)
    lane = [s for s in harness.SUITE_STAGES
            if s not in harness._AFTER_JOIN and s != "witness:cvp-verdict-bit"]
    assert ran == [*lane, "witness:cvp-verdict-bit", *harness._AFTER_JOIN]
    # the report keeps SUITE_STAGES order
    assert [r.name for r in report.reports] == list(harness.SUITE_STAGES)


@pytest.mark.parametrize("inject", [(), *((name,) for name in INJECTIONS)],
                         ids=["none", *INJECTIONS])
def test_no_two_rows_of_a_group_share_a_name(inject):
    # The injected suites fail rows, so their itemized rows count too.
    report = run_suite(replace(HANDOFF, inject=inject))
    for group in report.reports:
        names = [row.name for row in group.checks]
        assert len(set(names)) == len(names), group.name


def test_suite_timings_cover_the_sample_draw_and_every_stage():
    report = run_suite(HANDOFF)
    assert list(report.timings) == ["draw-samples", *harness.SUITE_STAGES]


# Each sampler as (catalog, seed, budget) -> samples, with the number of
# fixed samples it puts after its random part.
SAMPLERS = {
    "bds": (lambda cat, seed, budget: cat.sampler("bds")(seed, 2, budget), 4),
    "qbds": (lambda cat, seed, budget: cat.sampler("qbds")(seed, 2, budget), 4),
    "cvp-pairs": (lambda cat, seed, budget:
                  cat.f_reductions["cvp-identity"].sample_pairs(seed, budget), 2),
}


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_keeps_one_seed_of_draws(name, monkeypatch):
    sample, strays = SAMPLERS[name]
    cat = build_catalog(SMALL)
    fresh = sample(build_catalog(SMALL), 5, 30)
    counters = [_calls(monkeypatch, bds, "random_instance"),
                _calls(monkeypatch, cvp, "random_circuit")]

    def drawn() -> int:
        return sum(map(len, counters))

    big, again = sample(cat, 5, 30), sample(cat, 5, 30)
    assert big == again == fresh and big is not again
    fixed = sample(cat, 5, 0)
    head = len(fixed) - strays
    assert len(big) == len(fixed) + 30
    assert big[:head] == fixed[:head] and big[-strays:] == fixed[-strays:]
    # a smaller budget's random part is a prefix of a larger one's
    assert sample(cat, 5, 10)[head:-strays] == big[head:head + 10]
    big.clear()
    assert sample(cat, 5, 30) == fresh
    assert drawn() == 30
    assert sample(cat, 5, 40)[:head + 30] == fresh[:head + 30]
    assert drawn() == 40
    # another seed replaces the kept draws; the first seed is drawn again
    assert sample(cat, 6, 10) != fresh[:head + 10] + fresh[-strays:]
    assert [seed for seed, _, _ in cat.drawn.values()] == [6]
    assert sample(cat, 5, 30) == fresh
    assert drawn() == 80
