"""Stage and layer timings of the large-instance path, as a JSON record.

    python -m polytract.bench --json BENCH.json [--label change]

Runs run_suite(SuiteConfig()) at seed 42 once and records its wall time,
each stage's time, the process's peak RSS right after it, the largest
peak RSS and the total CPU time of the worker processes that drew and
decided the bds ladder rungs (as the report's ladder:bds-verdict-bit
row gives them), the stripped report's sha256 and the report/check
names of its failing rows. Then it times each large-instance kernel at
every DEFAULT_LADDER rung with time_interleaved_ns: the rungs of one
kernel are swept together and each keeps its fastest sweep. Last it
records the tracemalloc peak of one call of each PEAK_LAYERS kernel at
every rung, in MB (2**20 bytes) to six places, so a few bytes at a
small rung do not read 0: what the call allocates beyond its input.
Inputs come from fixed string seeds. Finally it counts the bds decides
of a second suite run (suite_decides).

The record is stored under LABEL in the JSON file and other labels
already there are kept, so running this file against two checkouts puts
their columns side by side.
`polytract bench` is a different thing: the suite's growth-fit check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import tempfile
import time
import tracemalloc

from . import catalog, encoding
from .errors import MalformedInstance
from .harness import DEFAULT_LADDER, SuiteConfig, run_suite, time_interleaved_ns
from .problems import bds, cvp, wordstats
from .report import dump_json, strip_timings

SEED = 42


def _suite(seed: int) -> dict:
    t0 = time.perf_counter_ns()
    report = run_suite(SuiteConfig(seed=seed))
    wall = time.perf_counter_ns() - t0
    stripped = dump_json(strip_timings(report.to_dict()))
    # What the ladder workers and their helpers spent, as run_suite
    # reaped them: they draw and decide the bds ladder rungs and do
    # nothing else. The peak is the largest worker's or helper's.
    workers = next(c.timings["workers"] for r in report.reports for c in r.checks
                   if c.name == "ladder:bds-verdict-bit")
    return {
        "wall_s": round(wall / 1e9, 3),
        "stages_s": {k: round(v / 1e9, 3) for k, v in report.timings.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "worker_peak_rss_mb": round(workers["peak_rss_kb"] / 1024, 1),
        "worker_cpu_s": round(workers["cpu_ns"] / 1e9, 3),
        "report_sha256": hashlib.sha256(stripped.encode("utf-8")).hexdigest(),
        "verdict": "pass" if report.passed else "fail",
        "failed_rows": [f"{r.name}/{c.name}" for r in report.reports
                        for c in r.checks if not c.passed],
    }


def suite_decides(config: SuiteConfig) -> dict:
    """bds.block_member calls in one run_suite(config), in this process
    and in every worker it forks; the distinct (graph block, query)
    pairs they asked about, an instance's pair being its block and query
    tail; and the entries of the run's catalog verdict table. Each call
    appends a line to a file every process opened for appending, so the
    forks' calls count."""
    decide, build = bds.block_member, catalog.build_catalog
    built = []

    def counted(block, query, *bounds):
        try:
            data, tail = bds.split_block_tail(block) if query is None else (block, query)
        except MalformedInstance:
            line = b"-\n"
        else:
            line = catalog._pair_key(len(data), data, tail).hex().encode("ascii") + b"\n"
        os.write(log, line)
        return decide(block, query, *bounds)

    def kept(config):
        built.append(build(config))
        return built[-1]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "decides")
        log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        bds.block_member, catalog.build_catalog = counted, kept
        try:
            run_suite(config)
        finally:
            bds.block_member, catalog.build_catalog = decide, build
            os.close(log)
        with open(path, "rb") as fh:
            lines = fh.read().split()
    return {"block_member_calls": len(lines), "distinct_pairs": len(set(lines) - {b"-"}),
            "table_entries": len(built[0].verdicts)}


def _layer_tasks(n: int, seed: int) -> dict:
    """layer name -> (fn, calls) at rung n."""
    config = SuiteConfig()
    cat = catalog.build_catalog(config)
    count_digest = cat.witnesses["wordstats-count-digest"].witness
    count_member = cat.pair_languages["wordstats-pairs"].membership
    g = bds.random_sparse_graph(n, random.Random(f"{seed}:bench-graph:{n}"))
    block = bds.graph_to_bytes(g)
    instance = block + b"1 2"
    circuit = cvp.random_circuit(n, random.Random(f"{seed}:bench-circuit:{n}"))
    text = cvp.circuit_to_bytes(circuit)
    forward_text = _forward_wired_text(circuit)
    # An escaped payload of the block's size, about a quarter of whose
    # bytes are delimiters or the escape byte before escaping.
    rng = random.Random(f"{seed}:bench-payload:{n}")
    raw = bytes(rng.choices(b"#@\\abcdefgh", k=len(block)))
    escaped = encoding.escape_payload(raw)
    dense_pair = encoding.encode_pair(encoding.Pair(raw[:len(raw) // 2], raw[len(raw) // 2:]))

    def draw_corpus():
        """n tokens, as the wordstats ladder rung of size n draws them."""
        return wordstats.random_corpus_text(n, random.Random(f"{seed}:bench-corpus:{n}"),
                                            config.lexicon)

    corpus = draw_corpus()
    digest = count_digest.preprocess(corpus)  # the digest table now holds the corpus
    count_query = wordstats.query_bytes(config.lexicon[-1], 1)
    count_member(corpus, count_query)  # and so does the count table

    return {
        "bds.random_sparse_graph": (
            lambda: bds.random_sparse_graph(n, random.Random(f"{seed}:bench-graph:{n}")), [()]),
        "bds.random_sparse_instance": (
            lambda: bds.random_sparse_instance(n, random.Random(f"{seed}:bench-graph:{n}")), [()]),
        "bds.graph_to_bytes": (bds.graph_to_bytes, [(g,)]),
        "bds.parse_instance": (bds.parse_instance, [(instance,)]),
        "bds.bds_order": (bds.bds_order, [(g,)]),
        "bds.bds_member": (bds.bds_member, [(instance,)]),
        "encoding.decode_pair (qbds form)": (encoding.decode_pair,
                                             [(catalog.as_qbds(instance),)]),
        "encoding.decode_pair (escape-dense)": (encoding.decode_pair, [(dense_pair,)]),
        "encoding.unescape_payload (escape-dense)": (encoding.unescape_payload, [(escaped,)]),
        "cvp.random_circuit": (
            lambda: cvp.random_circuit(n, random.Random(f"{seed}:bench-circuit:{n}")), [()]),
        "cvp.circuit_to_bytes": (cvp.circuit_to_bytes, [(circuit,)]),
        "cvp.parse_circuit": (cvp.parse_circuit, [(text,)]),
        "cvp.negate_output": (cvp.negate_output, [(circuit,)]),
        "cvp.cvp_member": (cvp.cvp_member, [(text,)]),
        "cvp.cvp_member (forward-wired)": (cvp.cvp_member, [(forward_text,)]),
        "wordstats.random_corpus_text": (draw_corpus, [()]),
        # the digest kernel, which a digest-table miss runs
        "wordstats-count-digest preprocess": (wordstats.count_digest,
                                              [(corpus, config.lexicon)]),
        # one count unpacked from the rung corpus's digest, and a count
        # and a digest table hit on the corpus: a hash of it and a lookup
        "counts-at-least post (one count)": (count_digest.post_language.membership,
                                             [(digest, count_query)]),
        "wordstats-pairs count-table hit": (count_member, [(corpus, count_query)]),
        "count-digest table hit": (count_digest.preprocess, [(corpus,)]),
    }


def _forward_wired_text(c) -> bytes:
    """Text of circuit c with ids 1..n-1 reversed and the output kept
    last, so every gate names later nodes only and cvp_member evaluates
    in topological order."""
    nodes = c.nodes
    n = len(nodes)
    return "".join(
        f"{i} input {int(node[1])}\n" if node[0] == "input"
        else " ".join(map(str, (i, node[0], *(n - ref for ref in node[1:])))) + "\n"
        for i, node in enumerate(nodes[-2::-1] + nodes[-1:], 1)).encode("ascii")


def layer_ns(seed: int, ladder=DEFAULT_LADDER) -> dict:
    """layer name -> [[rung, ns per call], ...] in ladder order."""
    rungs = {n: _layer_tasks(n, seed) for n in ladder}
    out = {}
    for layer in rungs[ladder[0]]:
        floors = time_interleaved_ns([rungs[n][layer] for n in ladder])
        out[layer] = [[n, round(ns)] for n, ns in zip(ladder, floors)]
    return out


# Layers whose traced peak layer_peak_mb records.
PEAK_LAYERS = ("bds.parse_instance", "bds.bds_member", "cvp.parse_circuit", "cvp.cvp_member",
               "cvp.cvp_member (forward-wired)", "encoding.unescape_payload (escape-dense)")


def layer_peak_mb(seed: int, ladder=DEFAULT_LADDER) -> dict:
    """layer name -> [[rung, traced peak MB of one call], ...] in ladder
    order, for the PEAK_LAYERS."""
    out = {layer: [] for layer in PEAK_LAYERS}
    for n in ladder:
        tasks = _layer_tasks(n, seed)
        for layer in PEAK_LAYERS:
            fn, calls = tasks[layer]
            tracemalloc.start()
            try:
                fn(*calls[0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out[layer].append([n, round(peak / 2**20, 6)])
    return out


def measure() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        # What run_suite deals the ladder rungs over, one worker per CPU
        # at most.
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "suite": _suite(SEED),
        "ns_per_call": layer_ns(SEED),
        "traced_peak_mb": layer_peak_mb(SEED),
        "suite_decides": suite_decides(SuiteConfig(seed=SEED)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m polytract.bench",
        description="Record suite stage times, per-layer ns per call and "
                    "per-layer traced peaks.")
    ap.add_argument("--json", required=True, metavar="PATH",
                    help="JSON file to add the record to")
    ap.add_argument("--label", default="change",
                    help="name of this record's column (default: change)")
    args = ap.parse_args(argv)

    record = measure()
    try:
        with open(args.json, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"columns": {}}
    doc["columns"][args.label] = record
    dump_json(doc, args.json)
    print(f"{args.label}: run_suite {record['suite']['wall_s']} s, "
          f"peak RSS {record['suite']['peak_rss_mb']} MB -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
