"""End-to-end acceptance checks at desk scale.

Each test emits one PASS/FAIL line, echoed in the terminal summary after
the run, then asserts. Budgets and tolerances are fixed here on purpose;
loosening them is not an option when something regresses.
"""
from __future__ import annotations

import math
import random
import time

from conftest import record_acceptance

from polytract.catalog import build_catalog
from polytract.encoding import Pair, PolylogBound, encode_pair
from polytract.factorization import check_prop1, verify_factorization
from polytract.harness import (
    SuiteConfig,
    fit_runtime,
    run_check,
    run_suite,
)
from polytract.preprocessing import digest_size_ladder, verify_witness
from polytract.problems import bds, cvp
from polytract.problems import wordstats as ws
from polytract.report import dump_json, strip_timings
from polytract.separation import (
    count_realizable_orders,
    find_truncation_collision,
    separation_report,
    truncation_digest,
)

from oracles import bds_order_oracle, cvp_eval_oracle, factorial_oracle


def announce(num: int, ok: bool, label: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label}"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_acceptance_01_visit_order_matches_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    exhaustive = 0
    for n in (1, 2, 3, 4):
        for g in bds.enumerate_graphs(n):
            if bds.bds_order(g) != bds_order_oracle(g.n, g.numbering, g.edges):
                mismatches += 1
            exhaustive += 1
    rng = random.Random("acceptance:visit-order")
    for _ in range(1000):
        n = rng.randrange(5, 51)
        g = bds.random_graph(n, rng, rng.uniform(0.05, 0.5))
        if bds.bds_order(g) != bds_order_oracle(g.n, g.numbering, g.edges):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and exhaustive == 1589 and elapsed < 60.0
    announce(1, ok,
             f"visit order matches the stack oracle on {exhaustive} exhaustive "
             f"+ 1000 random graphs, {mismatches} mismatches, {elapsed:.1f}s")


def test_acceptance_02_circuit_eval_matches_oracle():
    mismatches = 0
    exhaustive = 0
    for c in cvp.enumerate_circuits(max_gates=3, max_inputs=2):
        if cvp.cvp_eval(c) != cvp_eval_oracle(c.nodes):
            mismatches += 1
        exhaustive += 1
    rng = random.Random("acceptance:circuit-eval")
    for _ in range(10_000):
        # size = inputs + gates + output keeps the gate count at 12 or less
        c = cvp.random_circuit(rng.randrange(2, 15), rng)
        if cvp.cvp_eval(c) != cvp_eval_oracle(c.nodes):
            mismatches += 1
    ok = mismatches == 0 and exhaustive > 100_000
    announce(2, ok,
             f"circuit evaluation matches the memoized oracle on {exhaustive} "
             f"exhaustive + 10000 random circuits, {mismatches} mismatches")


def test_acceptance_03_count_digest_iff_and_bit_budget():
    cat = build_catalog(SuiteConfig())
    witness = cat.witnesses["wordstats-count-digest"].witness
    post = witness.post_language.membership
    lexicon = ws.DEFAULT_LEXICON
    lexset = set(lexicon)
    m = len(lexicon)
    rng = random.Random("acceptance:count-digest")
    iff_breaks = bit_breaks = 0
    true_cases = false_cases = 0
    for i in range(100):
        n_tokens = 1 << (10 + i % 11)
        text = ws.random_corpus_text(n_tokens, rng, lexicon, 0.35)
        counts = dict.fromkeys(lexicon, 0)
        for token in text.decode("utf-8").split():
            word = token.lower()
            if word in lexset:
                counts[word] += 1
        digest = witness.preprocess(text)
        width = digest[0]
        bits = m * width
        if bits > m * math.ceil(math.log2(n_tokens + 1)):
            bit_breaks += 1
        if len(digest) != 1 + (bits + 7) // 8:
            bit_breaks += 1
        for _ in range(1000):
            word = rng.choice(lexicon)
            have = counts[word]
            roll = rng.random()
            if roll < 0.45:
                k = rng.randint(0, have)
            elif roll < 0.9:
                k = have + 1 + rng.randrange(5)
            else:
                word, k = "zzz", rng.randrange(3)
            want = word in lexset and counts.get(word, 0) >= k
            got = post(digest, ws.query_bytes(word, k))
            if got != want:
                iff_breaks += 1
            if want:
                true_cases += 1
            else:
                false_cases += 1
    ok = (iff_breaks == 0 and bit_breaks == 0
          and true_cases > 10_000 and false_cases > 10_000)
    announce(3, ok,
             f"count digest answered 100x1000 queries with {iff_breaks} "
             f"equivalence breaks and {bit_breaks} bit-budget breaks "
             f"({true_cases} true / {false_cases} false cases)")


def test_acceptance_04_verdict_witnesses_two_sided():
    cat = build_catalog(SuiteConfig())
    all_ok = True
    details = []
    for name in ("cvp-verdict-bit", "bds-verdict-bit"):
        entry = cat.witnesses[name]
        pos, neg = entry.sample_pairs(42, 500)
        rep = verify_witness(entry.language, entry.witness, pos, neg)
        all_ok = all_ok and rep.passed and len(pos) >= 500 and len(neg) >= 500
        details.append(f"{name}: {len(pos)}+/{len(neg)}-")
    centry = cat.witnesses["cvp-verdict-bit"]
    ladder = digest_size_ladder(
        centry.witness, lambda size: centry.ladder_gen(size, 42),
        (1024, 4096, 16384, 65536))
    all_ok = all_ok and ladder.passed and abs(ladder.slope) <= 0.1
    announce(4, all_ok,
             f"verdict witnesses verified two-sided ({'; '.join(details)}), "
             f"constant-digest ladder slope {ladder.slope:+.3f} within 0.1")


def _member_bds_instances() -> list[bytes]:
    members = []
    for x in bds.enumerate_instances(4):
        if bds.bds_member(x):
            members.append(x)
    rng = random.Random("acceptance:factorization")
    for _ in range(1000):
        x = bds.random_instance(rng.randrange(5, 41), rng, rng.uniform(0.1, 0.5))
        members.append(x if bds.bds_member(x) else bds.swap_query(x))
    return members


def test_acceptance_05_factorization_contracts_exact_slack():
    cat = build_catalog(SuiteConfig())
    bds_members = _member_bds_instances()
    checks_ok = True
    slack_ok = True
    for name, samples in (
        ("bds-all-data", bds_members),
        ("qbds-absorb", [_as_qbds(x) for x in bds_members]),
    ):
        fl = cat.factored[name]
        rep = verify_factorization(fl, samples)
        rep.extend(check_prop1(fl, samples))
        checks_ok = checks_ok and rep.passed
        c = fl.fact.redundancy
        for x in samples:
            d, q = fl.fact.data_part(x), fl.fact.query_part(x)
            if len(d) + len(q) - len(x) != c:
                slack_ok = False
                break
    ok = checks_ok and slack_ok and len(bds_members) > 10_000
    announce(5, ok,
             f"split contracts hold on {len(bds_members)} member instances per "
             f"shape with slack exactly at the declared constant")


def _as_qbds(x: bytes) -> bytes:
    """x's graph and query, rewritten and joined by '#'; the payloads
    never need escaping."""
    g, u, v = bds.parse_instance(x)
    return encode_pair(Pair(bds.graph_to_bytes(g), f"{u} {v}".encode("ascii")))


def test_acceptance_06_composition_with_exact_constants():
    cfg = SuiteConfig(random_budget=120)
    cat = build_catalog(cfg)
    rep = run_check(cat, cfg, "compositions")
    labels = {c.name for c in rep.checks}
    has_identity_pair = any("bds-identity*bds-identity" in name for name in labels)
    pair_count = sum(1 for name in labels if name.startswith("constants:"))
    ok = rep.passed and has_identity_pair and pair_count >= 3
    announce(6, ok,
             f"{pair_count} reduction compositions verified end to end, "
             f"including the identity pair, joining constants exact")


def test_acceptance_07_witness_transfer_and_fault_injection():
    cfg = SuiteConfig(random_budget=120)
    honest = run_check(build_catalog(cfg), cfg, "witness-transfer")

    cfg_bad = SuiteConfig(
        random_budget=120, inject=("identity-preprocessing:bds-verdict-bit",))
    injected = run_check(build_catalog(cfg_bad), cfg_bad, "witness-transfer")
    ladder_rows = [c for c in injected.checks if c.name == "ladder:transferred"]
    ok = honest.passed and len(ladder_rows) == 1 and not ladder_rows[0].passed
    announce(7, ok,
             "transferred witness passes; identity-preprocessing injection "
             "fails the same pipeline at the ladder check")


def test_acceptance_08_orders_outgrow_digests():
    counts_ok = all(
        count_realizable_orders(n) == factorial_oracle(n)
        for n in (1, 2, 3, 4, 5)
    )
    pinned_ok = (
        count_realizable_orders(3) == 6
        and count_realizable_orders(4) == 24
        and count_realizable_orders(5) == 120
    )
    rep = separation_report(range(1, 21), PolylogBound(1.0, 2, 0.0))
    exact_ok = all(
        row["factorial"] > row["two_pow_n"]
        for row in rep.rows if row["n"] >= 4
    ) and all(
        row["factorial"] < row["two_pow_n"]
        for row in rep.rows if row["n"] <= 3
    )
    col = find_truncation_collision(5, 6)
    collision_ok = (
        col is not None
        and bds.bds_order(col.first) != bds.bds_order(col.second)
        and truncation_digest(bds.graph_to_bytes(col.first), 6)
        == truncation_digest(bds.graph_to_bytes(col.second), 6)
    )
    ok = counts_ok and pinned_ok and exact_ok and collision_ok
    announce(8, ok,
             "edgeless graphs realize n! orders (6/24/120 at n=3..5), "
             "n! > 2^n exactly for 4<=n<=20, truncated digests collide at n=5")


def test_acceptance_09_runtime_fits():
    quad = fit_runtime([(n, 7 * n * n) for n in (256, 1024, 4096, 16384, 65536)],
                       "poly-n")
    cubiclog = fit_runtime(
        [(n, int(11 * math.log2(n) ** 3))
         for n in (2 ** 10, 2 ** 12, 2 ** 15, 2 ** 18, 2 ** 20)],
        "poly-log-n")
    synth_ok = abs(quad.exponent - 2.0) <= 0.1 and abs(cubiclog.exponent - 3.0) <= 0.2

    cfg = SuiteConfig(ladder=(2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20))
    rep = run_check(build_catalog(cfg), cfg, "runtime-fits")
    latency_rows = [c for c in rep.checks if c.name.startswith("query-latency")]
    latency_ok = len(latency_rows) == 2 and all(c.passed for c in latency_rows)
    ok = synth_ok and latency_ok
    announce(9, ok,
             f"synthetic exponents recovered (n^2 -> {quad.exponent:.3f}, "
             f"log^3 -> {cubiclog.exponent:.3f}); query latency stays polylog "
             f"over inputs up to 2^20")


def _untimed(report: dict) -> tuple[str, bool]:
    """The stripped report without the runtime-fits group, whose verdicts
    judge wall-clock fits, and without the overall verdict, which folds
    them in; and whether every row left passed. Acceptance 09 asserts
    the timed rows."""
    groups = [g for g in report["checks"] if g["name"] != "runtime-fits"]
    passed = all(row["passed"] for g in groups for row in g["checks"])
    return dump_json(strip_timings(dict(report, checks=groups, verdict=None))), passed


def test_acceptance_10_reports_reproduce_byte_for_byte():
    cfg = SuiteConfig(random_budget=60, witness_samples=30)
    first, passed = _untimed(run_suite(cfg).to_dict())
    second, _ = _untimed(run_suite(cfg).to_dict())
    ok = first == second and passed
    announce(10, ok,
             f"two suite runs at one seed agree byte for byte across "
             f"{first.count('passed')} untimed check rows, all passing, once "
             f"timings are stripped")
