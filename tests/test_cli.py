import json
import re

import pytest

from polytract.cli import _config_from_args, build_parser, main
from polytract.harness import SUITE_STAGES
from polytract.report import strip_timings


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "wordstats-count-digest" in out
    assert "qbds-to-bds" in out


def test_list_writes_what_it_prints_to_a_json_path(tmp_path, capsys):
    path = tmp_path / "list.json"
    assert main(["list", "--json", str(path)]) == 0
    printed = capsys.readouterr().out
    listing = json.loads(path.read_text())
    assert sorted(listing) == ["factored_languages", "problems", "reductions", "witnesses"]
    for name, describe in listing["problems"].items():
        assert f"  {name}: {describe}\n" in printed
    for key in ("factored_languages", "witnesses", "reductions"):
        assert f"{key.replace('_', ' ')}: {', '.join(listing[key])}\n" in printed
    assert listing["witnesses"] == [
        "bds-verdict-bit", "cvp-verdict-bit", "wordstats-count-digest"]


def test_list_json_stdout(capsys):
    assert main(["list", "--json", "-"]) == 0
    captured = capsys.readouterr()
    listing = json.loads(captured.out)
    assert "qbds-to-bds" in listing["reductions"]
    assert listing["problems"]["bds"] in captured.err.splitlines()[1]


def test_check_json_stdout(capsys):
    assert main(["verify-factorization", "qbds-absorb", "--random", "5", "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "pass"
    assert captured.err.splitlines()[-1] == "overall: PASS"


def test_unknown_catalog_name_is_usage_error(capsys):
    assert main(["verify-witness", "no-such-thing"]) == 2
    assert "unknown witness" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("made_up_key = 1\n")
    assert main(["run-suite", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_misspelled_inject_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("inject = identity-preprocesing:bds-verdict-bit\n")
    assert main(["run-suite", "--config", str(cfg)]) == 2
    assert "line 1: unknown inject entry" in capsys.readouterr().err


def test_degenerate_lexicon_and_gate_weights_are_usage_errors(tmp_path, capsys):
    # Each used to get through parse_config and crash the check (exit 3),
    # or abort it (exit 1): a word holding whitespace never occurs in a
    # corpus, so a sampled positive was not a member.
    for line, command in (("lexicon = ,", ["verify-witness", "wordstats-count-digest"]),
                          ("lexicon = in on", ["run-suite"]),
                          ("gate_weights = 0,0,0", ["verify-reduction", "cvp-identity"]),
                          ("gate_weights = -1,1,1", ["verify-reduction", "cvp-identity"]),
                          ("preposition_rate = nan", ["run-suite"]),
                          ("preposition_rate = inf",
                           ["verify-witness", "wordstats-count-digest"])):
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(line + "\n")
        assert main([*command, "--config", str(cfg)]) == 2
        assert "line 1: " in capsys.readouterr().err


def test_oversized_separation_cap_is_usage_error(tmp_path, capsys):
    # Used to get through parse_config and abort the enumeration (exit 1).
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("exhaustive_cap.separation = 8\n")
    assert main(["separate", "--config", str(cfg)]) == 2
    assert "line 1: exhaustive_cap.separation 8 exceeds" in capsys.readouterr().err


def test_oversized_bds_cap_is_usage_error(tmp_path, capsys):
    # Both ways of setting the bds cap are checked.
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("exhaustive_cap.bds = 6\n")
    assert main(["list", "--config", str(cfg)]) == 2
    assert "line 1: exhaustive_cap.bds 6 exceeds" in capsys.readouterr().err
    for cap in ("6", "-1"):
        assert main(["list", "--max-exhaustive", cap]) == 2
        assert f"error: exhaustive_cap.bds {cap} exceeds" in capsys.readouterr().err
    assert main(["list", "--max-exhaustive", "5"]) == 0


def test_oversized_separation_table_is_usage_error(capsys):
    # From n = 1,559 on, n! has more digits than Python converts to a
    # string, and the table used to crash on it (exit 3).
    for args in (["--max-n", "1559"], ["--max-n", "1001", "--json", "-"]):
        assert main(["separate", *args]) == 2
        assert f"error: separation_max_n {args[1]} exceeds 1000" in capsys.readouterr().err
    assert main(["separate", "--max-n", "1000"]) == 0


def test_budgets_out_of_range_are_usage_errors(tmp_path, capsys):
    # Each used to run its check on no evidence and pass.
    cfg = tmp_path / "budget.cfg"
    for line in ("witness_samples = 0", "random_budget = -1"):
        cfg.write_text(line + "\n")
        assert main(["verify-witness", "cvp-verdict-bit", "--config", str(cfg)]) == 2
        assert f"error: line 1: {line.split()[0]} " in capsys.readouterr().err
    assert main(["verify-reduction", "bds-identity", "--random", "-3"]) == 2
    assert "error: random_budget -3 is negative" in capsys.readouterr().err


def test_short_ladder_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("ladder = 512, 1024\n")
    assert main(["run-suite", "--config", str(cfg)]) == 2
    assert "ladder" in capsys.readouterr().err


@pytest.mark.parametrize("ladder", ["4096, 1024, 16384, 65536", "0, 1, 2, 3"])
def test_ladder_out_of_order_or_below_4_is_usage_error(ladder, tmp_path, capsys):
    # The first used to fail inside witness:cvp-verdict-bit, the second
    # in runtime-fits after the whole suite ran.
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text(f"ladder = {ladder}\n")
    assert main(["run-suite", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 1:" in err and "ladder" in err


def test_out_of_lexicon_probe_word_stays_outside_the_lexicon(tmp_path, capsys):
    # The witness sampler's out-of-lexicon query word used to be zzz
    # whatever the lexicon, so the check aborted on a mislabeled negative.
    cfg = tmp_path / "lexicon.cfg"
    cfg.write_text("lexicon = zzz\n")
    assert main(["verify-witness", "wordstats-count-digest", "--config", str(cfg)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_tiny_ladder_with_tied_rung_sizes_reports_every_stage(tmp_path, capsys):
    # At seed 0 the first corpora of the 5- and 6-token wordstats rungs
    # are both 28 bytes; fitting them used to abort the suite (exit 2).
    cfg, path = tmp_path / "ladder.cfg", tmp_path / "report.json"
    cfg.write_text("ladder = 4, 5, 6, 7\n")
    assert main(["run-suite", "--seed", "0", "--config", str(cfg), "--json", str(path)]) == 1
    groups = {g["name"]: g for g in json.loads(path.read_text())["checks"]}
    assert list(groups) == list(SUITE_STAGES)
    assert [name for name, g in groups.items() if g["verdict"] == "fail"] == ["runtime-fits"]
    rows = {c["name"]: c for c in groups["runtime-fits"]["checks"]}
    for name in ("preprocess-poly-degree:wordstats", "query-latency-polylog:wordstats"):
        assert not rows[name]["passed"]
        assert rows[name]["detail"] == "no fit: rungs tie at size 28"


def test_verify_factorization_pass(capsys):
    code = main(["verify-factorization", "qbds-absorb", "--random", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS restore-roundtrip" in out
    assert "overall: PASS" in out


def test_verify_reduction_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify-reduction", "qbds-to-bds", "--random", "25",
                 "--json", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["verdict"] == "pass"
    assert any(c["name"] == "iff-equivalence" for c in payload["checks"])


def test_injected_fault_fails_with_exit_one(tmp_path, capsys):
    cfg = tmp_path / "inject.cfg"
    cfg.write_text("inject = identity-preprocessing:wordstats-count-digest\n")
    code = main(["verify-witness", "wordstats-count-digest",
                 "--config", str(cfg), "--random", "25"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out


def test_separate_table_and_csv(capsys):
    assert main(["separate", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "n=  5" in out
    assert "collision" in out
    assert main(["separate", "--max-n", "6", "--csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("n,")


def test_separate_fails_without_an_n_from_4(capsys):
    for max_n in ("0", "3"):
        assert main(["separate", "--max-n", max_n]) == 1
        assert "overall: FAIL" in capsys.readouterr().out


def _table_ns(out: str) -> list[int]:
    """The n of each row of a printed separation table."""
    return [int(n) for n in re.findall(r"^n=\s*(\d+) ", out, re.M)]


def test_separate_reads_its_keys_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "sep.cfg"
    cfg.write_text("separation_max_n = 6\nbound.separation = 3,1,0\n")
    assert main(["separate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert _table_ns(out) == [1, 2, 3, 4, 5, 6]
    assert "digest_values<=2^6.0 " in out  # 3*log2(4), where log2(n)^2 gives 4
    # a flag beats the file's key
    assert main(["separate", "--config", str(cfg), "--max-n", "4"]) == 0
    assert _table_ns(capsys.readouterr().out) == [1, 2, 3, 4]


def test_separate_rejects_a_malformed_bound(capsys):
    for bound in ("1,2", "a,2,0", "1,2.5,0"):
        assert main(["separate", "--bound", bound]) == 2
        assert "error: --bound: " in capsys.readouterr().err


def test_flags_beat_the_config_file_and_leave_the_rest(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 5\nrandom_budget = 99\nexhaustive_cap.bds = 2\n")
    args = build_parser().parse_args(["list", "--config", str(cfg), "--seed", "123"])
    config = _config_from_args(args)
    assert config.seed == 123                    # the flag wins
    assert config.random_budget == 99            # flags left out keep the file's
    assert config.exhaustive_caps["bds"] == 2
    args = build_parser().parse_args(["list", "--config", str(cfg), "--random", "7",
                                      "--max-exhaustive", "4"])
    config = _config_from_args(args)
    assert (config.seed, config.random_budget, config.exhaustive_caps["bds"]) == (5, 7, 4)


def test_malformed_flag_values_are_usage_errors(capsys):
    for flag, value in (("--seed", "x"), ("--random", "1.5"), ("--max-exhaustive", "")):
        assert main(["list", flag, value]) == 2
        assert f"error: {flag}: " in capsys.readouterr().err
    assert main(["separate", "--max-n", "many"]) == 2
    assert "error: --max-n: " in capsys.readouterr().err


def test_separate_json_stdout(capsys):
    assert main(["separate", "--max-n", "5", "--json", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["verdict"] == "pass"
    assert captured.err.splitlines()[-1] == "overall: PASS"


def test_stripped_check_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify-witness", "bds-verdict-bit", "--seed", "7",
                     "--random", "20", "--json", str(path)]) == 0
    ja = strip_timings(json.loads(a.read_text()))
    jb = strip_timings(json.loads(b.read_text()))
    assert ja == jb
