"""Stage and layer timings of the large-instance path, as a JSON record.

    python -m polytract.bench --json BENCH.json [--label change]

Runs run_suite(SuiteConfig()) at seed 42 once and records its wall time,
each stage's time, the process's peak RSS right after it, the stripped
report's sha256 and the report/check names of its failing rows. Then it
times each large-instance kernel at every DEFAULT_LADDER rung with
time_interleaved_ns: the rungs of one kernel are swept together and
each keeps its fastest sweep. Last it records the tracemalloc peak of
one call of each PEAK_LAYERS kernel at every rung, in MB (2**20 bytes)
to six places, so a few bytes at a small rung do not read 0: what the
call allocates beyond its input. Inputs come from fixed string
seeds.

The record is stored under LABEL in the JSON file and other labels
already there are kept, so running this file against two checkouts puts
their columns side by side. It uses only functions older checkouts have
too. Columns recorded in separate processes minutes apart differ by host
drift as well as by code, so with --parent DIR it also imports the
polytract package of the checkout at DIR under a second name and times
both packages' kernels in one process: each layer's parent and change
tasks at every rung go to one time_interleaved_ns call, recorded as
[rung, parent ns, change ns, change/parent] under "interleaved", next to
[rung, parent MB, change MB] rows of the PEAK_LAYERS traced peaks.
`polytract bench` is a different thing: the suite's growth-fit check.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from .harness import DEFAULT_LADDER, SuiteConfig, run_suite, time_interleaved_ns
from .report import dump_json, strip_timings

SEED = 42
# The name import_checkout gives a second checkout's polytract package.
PARENT_PACKAGE = "polytract_parent"


def _suite(seed: int) -> dict:
    t0 = time.perf_counter_ns()
    report = run_suite(SuiteConfig(seed=seed))
    wall = time.perf_counter_ns() - t0
    stripped = dump_json(strip_timings(report.to_dict()))
    return {
        "wall_s": round(wall / 1e9, 3),
        "stages_s": {k: round(v / 1e9, 3) for k, v in report.timings.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "report_sha256": hashlib.sha256(stripped.encode("utf-8")).hexdigest(),
        "verdict": "pass" if report.verdict else "fail",
        "failed_rows": [f"{r.name}/{c.name}" for r in report.reports
                        for c in r.checks if not c.passed],
    }


def _layer_tasks(n: int, seed: int, package: str = __package__) -> dict:
    """layer name -> (fn, calls) at rung n, from the polytract package
    imported under the name package."""
    bds = importlib.import_module(f"{package}.problems.bds")
    cvp = importlib.import_module(f"{package}.problems.cvp")
    encoding = importlib.import_module(f"{package}.encoding")
    as_qbds = importlib.import_module(f"{package}.catalog").as_qbds
    g = bds.random_sparse_graph(n, random.Random(f"{seed}:bench-graph:{n}"))
    block = bds.graph_to_bytes(g)
    instance = block + b"1 2"
    circuit = cvp.random_circuit(n, random.Random(f"{seed}:bench-circuit:{n}"))
    text = cvp.circuit_to_bytes(circuit)
    forward_text = cvp.circuit_to_bytes(_forward_wired(circuit))
    # An escaped payload of the block's size, about a quarter of whose
    # bytes are delimiters or the escape byte before escaping.
    rng = random.Random(f"{seed}:bench-payload:{n}")
    raw = bytes(rng.choices(b"#@\\abcdefgh", k=len(block)))
    escaped = encoding.escape_payload(raw)
    dense_pair = encoding.encode_pair(encoding.Pair(raw[:len(raw) // 2], raw[len(raw) // 2:]))
    return {
        "bds.random_sparse_graph": (
            lambda: bds.random_sparse_graph(n, random.Random(f"{seed}:bench-graph:{n}")), [()]),
        "bds.random_sparse_instance": (
            lambda: bds.random_sparse_instance(n, random.Random(f"{seed}:bench-graph:{n}")), [()]),
        "bds.graph_to_bytes": (bds.graph_to_bytes, [(g,)]),
        "bds.parse_instance": (bds.parse_instance, [(instance,)]),
        "bds.bds_order": (bds.bds_order, [(g,)]),
        "bds.bds_member": (bds.bds_member, [(instance,)]),
        "encoding.decode_pair (qbds form)": (encoding.decode_pair, [(as_qbds(instance),)]),
        "encoding.decode_pair (escape-dense)": (encoding.decode_pair, [(dense_pair,)]),
        "encoding.unescape_payload (escape-dense)": (encoding.unescape_payload, [(escaped,)]),
        "cvp.random_circuit": (
            lambda: cvp.random_circuit(n, random.Random(f"{seed}:bench-circuit:{n}")), [()]),
        "cvp.circuit_to_bytes": (cvp.circuit_to_bytes, [(circuit,)]),
        "cvp.parse_circuit": (cvp.parse_circuit, [(text,)]),
        "cvp.cvp_member": (cvp.cvp_member, [(text,)]),
        "cvp.cvp_member (forward-wired)": (cvp.cvp_member, [(forward_text,)]),
    }


def _forward_wired(c):
    """Circuit c with ids 1..n-1 reversed and the output kept last, so
    every gate names later nodes only and cvp_member evaluates in
    topological order."""
    n = len(c.nodes)

    def renamed(node):
        return node if node[0] == "input" else (node[0], *(n - ref for ref in node[1:]))

    return type(c)(tuple(map(renamed, c.nodes[-2::-1] + c.nodes[-1:])))


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


def layer_peak_mb(seed: int, ladder=DEFAULT_LADDER, package: str = __package__) -> dict:
    """layer name -> [[rung, traced peak MB of one call], ...] in ladder
    order, for the PEAK_LAYERS."""
    out = {layer: [] for layer in PEAK_LAYERS}
    for n in ladder:
        tasks = _layer_tasks(n, seed, package)
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


def import_checkout(root) -> str:
    """Import the polytract package of the checkout at root (its
    src/polytract) as PARENT_PACKAGE and return that name. Its modules
    import one another relatively, so none of them is shared with this
    package."""
    init = Path(root) / "src" / "polytract" / "__init__.py"
    loaded = sys.modules.get(PARENT_PACKAGE)
    if loaded is not None:
        if Path(loaded.__file__).resolve() != init.resolve():
            raise ValueError(f"{PARENT_PACKAGE} is already imported from {loaded.__file__}")
        return PARENT_PACKAGE
    spec = importlib.util.spec_from_file_location(
        PARENT_PACKAGE, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    # Registered first so the package's relative imports find it.
    sys.modules[PARENT_PACKAGE] = module
    spec.loader.exec_module(module)
    return PARENT_PACKAGE


def interleaved(seed: int, parent: str, ladder=DEFAULT_LADDER) -> dict:
    """The parent package (a name from import_checkout) against this one
    in one process. ns_per_call: layer name -> [[rung, parent ns, change
    ns, change/parent], ...], each layer's tasks of both sides at every
    rung swept together by one time_interleaved_ns call. traced_peak_mb:
    PEAK_LAYERS name -> [[rung, parent MB, change MB], ...]."""
    sides = [{n: _layer_tasks(n, seed, package) for n in ladder}
             for package in (parent, __package__)]
    # The task after the top rung runs on cold caches, so each sweep goes
    # through the rungs twice, once with each side first, and each task
    # keeps its faster place.
    order = [(n, side) for first in (0, 1) for n in ladder for side in (first, 1 - first)]
    ns = {}
    for layer in sides[1][ladder[0]]:
        floors = time_interleaved_ns([sides[side][n][layer] for n, side in order])
        best = dict.fromkeys(order, math.inf)
        for key, floor in zip(order, floors):
            best[key] = min(best[key], floor)
        ns[layer] = [[n, round(best[n, 0]), round(best[n, 1]), round(best[n, 1] / best[n, 0], 3)]
                     for n in ladder]
    del sides
    peaks = [layer_peak_mb(seed, ladder, package) for package in (parent, __package__)]
    return {
        "ns_per_call": ns,
        "traced_peak_mb": {layer: [[n, p, c] for (n, p), (_, c) in zip(peaks[0][layer],
                                                                      peaks[1][layer])]
                           for layer in PEAK_LAYERS},
    }


def measure() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "suite": _suite(SEED),
        "ns_per_call": layer_ns(SEED),
        "traced_peak_mb": layer_peak_mb(SEED),
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
    ap.add_argument("--parent", metavar="DIR",
                    help="also time the polytract package of the checkout at DIR "
                         "against this one in one process, under \"interleaved\"")
    args = ap.parse_args(argv)

    parent = None if args.parent is None else import_checkout(args.parent)
    record = measure()
    try:
        with open(args.json, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"columns": {}}
    doc["columns"][args.label] = record
    if parent is not None:
        doc["interleaved"] = {"python": record["python"], "seed": SEED,
                              **interleaved(SEED, parent)}
    dump_json(doc, args.json)
    print(f"{args.label}: run_suite {record['suite']['wall_s']} s, "
          f"peak RSS {record['suite']['peak_rss_mb']} MB -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
