"""One repetition of a workload, in a fresh process.

The parent starts this script, times it until the "ready" line (import
polytract plus build_catalog), reads the calibration slice time from the
next line, and reads one JSON object from the last line of its output.
Usage:

    python3 perfbench/child.py WORKLOAD SEED REP [--setup-only] [--trace STEM]

The inputs depend on WORKLOAD and SEED only; REP numbers the repetition
in the trace file.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Operations per repetition, and the timed chunks they run in; a chunk
# of small-sweep takes about 20 ms on the baseline machine.
CHUNKS = 32
SMALL_SWEEP = {"graphs": 800, "circuits": 600, "corpora": 80, "queries": 5}
HOSTILE_BYTES = {"payload_pairs": 1000, "total_calls": 4800}


def _setup(seed: int, trace_stem: str | None):
    sys.path.insert(0, str(SRC))
    import polytract

    if not Path(polytract.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polytract was imported from {polytract.__file__}, not {SRC}")
    tracer = None
    if trace_stem is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = polytract.SuiteConfig(seed=seed)
    return polytract, cfg, polytract.build_catalog(cfg), tracer


# Check groups whose rows judge wall-clock times the package measures
# itself (least-squares fits of runtime against input size). Their
# verdicts follow the host's noise, not the seed: on a shared 2-vCPU host
# query-latency-polylog:cvp failed in 3 of 110 repetitions. They are
# reported apart and left out of attempted, failed and correct, which
# count the rows a seed decides.
TIMED_GROUPS = frozenset({"runtime-fits"})


def _sha256(pt, report: dict) -> str:
    return hashlib.sha256(pt.dump_json(pt.strip_timings(report)).encode("utf-8")).hexdigest()


# Long-running functions inside the suite's check stages, called a few
# dozen times per run and never inside a region the package times
# itself. A calibration boundary at their entry and exit keeps the
# segments of the suite's timeline near a second or shorter.
INNER_BOUNDARIES = (
    ("preprocessing", "digest_size_ladder"),
    ("preprocessing", "verify_witness"),
    ("problems.bds", "random_sparse_graph"),
)


def _calibrate_suite(pt, timeline) -> list[float]:
    """Put calibration boundaries around each check stage run_suite calls
    (the harness's run_* functions) and around INNER_BOUNDARIES. Returns
    the list that fills with each stage's time at the reference speed."""
    from tracing import rebind

    modules = [m for n, m in sys.modules.items()
               if n == "polytract" or n.startswith("polytract.")]
    stages: list[float] = []

    def bounded(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            timeline.boundary()
            try:
                return fn(*args, **kwargs)
            finally:
                timeline.boundary()
        return call

    def stage(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            timeline.boundary()
            start = timeline.scaled
            try:
                return fn(*args, **kwargs)
            finally:
                timeline.boundary()
                stages.append(timeline.scaled - start)
        return call

    harness = pt.harness
    for name, fn in list(vars(harness).items()):
        if (name.startswith("run_") and name != "run_suite" and callable(fn)
                and getattr(fn, "__module__", None) == harness.__name__):
            rebind(modules, fn, stage(fn))
    for modname, fname in INNER_BOUNDARIES:
        fn = getattr(sys.modules.get(f"polytract.{modname}"), fname, None)
        if fn is not None:
            rebind(modules, fn, bounded(fn))
    return stages


def _suite(pt, cfg, clock, tracer) -> dict:
    import calibration

    timeline = calibration.Timeline(calibration.Calibrator(), clock)
    # The traced repetition gets boundaries only at its start and end, so
    # no calibration slice runs inside a traced span.
    stages = _calibrate_suite(pt, timeline) if tracer is None else []
    report = pt.run_suite(cfg)
    timeline.boundary()
    as_dict = report.to_dict()
    untimed = [g for g in as_dict["checks"] if g["name"] not in TIMED_GROUPS]
    rows = [(group["name"], row) for group in untimed for row in group["checks"]]
    failed = [f"{group}/{row['name']}" for group, row in rows if not row["passed"]]
    timed_failed = [f"{group['name']}/{row['name']}" for group in as_dict["checks"]
                    if group["name"] in TIMED_GROUPS
                    for row in group["checks"] if not row["passed"]]
    return {
        "wall_ns": timeline.scaled,
        "raw_wall_ns": timeline.raw,
        "attempted": len(rows),
        "failed": len(failed),
        "correct": not failed,
        "lat_ns": stages,
        "stages_ns": report.timings,
        "report_sha256": _sha256(pt, as_dict),
        # The overall verdict folds in the timed rows, so it is left out too.
        "untimed_sha256": _sha256(pt, dict(as_dict, checks=untimed, verdict=None)),
        "timed_failed": timed_failed,
        "examples": failed[:5],
    }


def _sweep(pt, cfg, cat, workload: str, seed: int, clock, tracer) -> dict:
    import inputs
    import workloads

    if tuple(cfg.lexicon) != inputs.LEXICON:
        raise SystemExit("the default lexicon differs from the documented one")
    # Every repetition of a seed runs the same inputs, so the counts of
    # attempted and failed operations depend on the seed alone.
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small-sweep":
        ops, stats = workloads.small_sweep(pt, cat, rng, **SMALL_SWEEP)
    else:
        ops, stats = workloads.hostile_bytes(pt, cat, rng, **HOSTILE_BYTES)
    wall, lat, outcomes, raw_wall = workloads.run_ops(ops, clock, CHUNKS, tracer)
    verdict = workloads.judge(ops, outcomes)
    return {
        "wall_ns": wall,
        "raw_wall_ns": raw_wall,
        "attempted": len(ops),
        "failed": verdict["failed"],
        "correct": not verdict["wrong"],
        "lat_ns": lat,
        "wrong": verdict["wrong"],
        "raised": verdict["raised"],
        "examples": verdict["examples"],
        "inputs": stats,
        "op_bytes": sum(op.nbytes for op in ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=("suite", "small-sweep", "hostile-bytes"))
    ap.add_argument("seed", type=int)
    ap.add_argument("rep", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="STEM", help="trace, and write spans to STEM.spans")
    args = ap.parse_args(argv)

    pt, cfg, cat, tracer = _setup(args.seed, args.trace)
    print("ready", flush=True)
    # The host's speed just after set-up, which the parent scales the
    # set-up time by (see calibration.py).
    import calibration

    calibrator = calibration.Calibrator()
    print("calibration", min(calibrator.slice_ns() for _ in range(3)), flush=True)
    if args.setup_only:
        return 0
    clock = time.perf_counter_ns
    if args.workload == "suite":
        result = _suite(pt, cfg, clock, tracer)
    else:
        result = _sweep(pt, cfg, cat, args.workload, args.seed, clock, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed,
                                  "rep": args.rep})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
