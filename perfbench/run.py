"""Benchmark of the polytract checker: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is suite, small-sweep, hostile-bytes, or all (the three in turn).
Run it from the repository root; it imports the package from src/.

Every workload is a closed loop with one caller. Each repetition runs in a
fresh child process (child.py), one child at a time, and repetitions
start until --seconds have passed (at least two; three for suite).
Inputs are derived from --seed alone, so every repetition runs the same
operations, and `attempted` and `failed` count the operations of one
repetition. Outputs are checked after the timed region, and every
repetition must give the same outcomes. Times are scaled to a reference
speed of the host (calibration.py). The last line of output is one JSON
object: with --trace 0 it holds the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics of one extra traced
repetition. The lines before it are the readable report, including the
environment and a details record that is also written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("suite", "small-sweep", "hostile-bytes")
SETUP_ONLY_CHILDREN = 5
# A suite repetition takes 15-20 s, and its time swings by up to a fifth
# between neighbouring repetitions, so it takes a median of three.
MIN_REPS = {"suite": 3, "small-sweep": 2, "hostile-bytes": 2}
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _read_line(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """First line of the child's stdout and whatever followed it."""
    fd = proc.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line, rest


def run_child(*args: str) -> tuple[float, float, dict]:
    """Run child.py; return (seconds until its "ready" line, the same
    scaled to the reference speed, its result, which is empty for a
    set-up-only child)."""
    argv = [sys.executable, "-S", str(HERE / "child.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    err_path = OUT / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            first, rest = _read_line(proc, start + CHILD_TIMEOUT_S)
            setup = time.perf_counter() - start
            out, _ = proc.communicate(
                timeout=max(1.0, start + CHILD_TIMEOUT_S - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {' '.join(args)} ran over {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if first != b"ready" or proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}: "
                         + " | ".join(tail))
    lines = (rest + out).splitlines()
    try:
        label, slice_ns = lines[0].split()
        if label != b"calibration":
            raise ValueError
        scaled = setup * calibration.REF_NS / int(slice_ns)
        return setup, scaled, {} if "--setup-only" in args else json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child {' '.join(args)} printed no result") from None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def percentile(ordered: list, q: float, time_weighted: bool = False):
    """Nearest-rank percentile of an ascending list of durations.

    Time-weighted, each sample counts in proportion to its duration: the
    result is the duration of the sample in which the q-th percentile of
    the total time falls.
    """
    if not time_weighted:
        return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
    target = q / 100 * sum(ordered)
    for value, reached in zip(ordered, itertools.accumulate(ordered)):
        if reached >= target:
            return value
    return ordered[-1]


def _outcome(result: dict) -> str:
    """What a repetition's checks found. Repetitions of one seed run the
    same inputs, so they must all find the same."""
    keys = ("attempted", "failed", "wrong", "raised", "untimed_sha256")
    return json.dumps({k: result.get(k) for k in keys}, sort_keys=True)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for about `seconds` and summarize it."""
    env = environment()
    run_child(workload, str(seed), "0", "--setup-only")  # warm bytecode and file cache
    setups = [run_child(workload, str(seed), "0", "--setup-only")[:2]
              for _ in range(SETUP_ONLY_CHILDREN)]
    reps: list[dict] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS[workload] or time.perf_counter() - start < seconds:
        *setup, result = run_child(workload, str(seed), str(len(reps)))
        setups.append(setup)
        reps.append(result)
        # One more set-up sample after every repetition, so the samples
        # spread over the whole run.
        setups.append(run_child(workload, str(seed), "0", "--setup-only")[:2])
    measured_s = time.perf_counter() - start

    lat = sorted(x for r in reps for x in r["lat_ns"])
    attempted, failed = reps[0]["attempted"], reps[0]["failed"]
    end_to_end = {
        "wall_s": statistics.median(r["wall_ns"] for r in reps) / 1e9,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1 - failed / attempted,
        "op_us.p50": percentile(lat, 50) / 1e3,
        "op_us.p99": percentile(lat, 99) / 1e3,
    }
    if workload == "suite":
        # A suite repetition has only 17 operations (check stages), too few
        # for plain percentiles: its percentiles are time-weighted, taken
        # per repetition, and the median over repetitions is reported.
        for q in (50, 99):
            end_to_end[f"op_us.p{q}"] = statistics.median(
                percentile(sorted(r["lat_ns"]), q, time_weighted=True) for r in reps) / 1e3
    correct = all(r["correct"] for r in reps)
    outcomes = {_outcome(r) for r in reps}
    details = {
        "workload": workload, "seed": seed, "environment": env,
        "repetitions": len(reps), "measured_s": measured_s,
        "setup_samples": len(setups), "latency_samples": len(lat),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "wall_s_per_rep": [r["wall_ns"] / 1e9 for r in reps],
        "raw_wall_s_per_rep": [r["raw_wall_ns"] / 1e9 for r in reps],
        "fail_frac": failed / attempted,
        "wrong": reps[0].get("wrong", {}),
        "raised": reps[0].get("raised", {}),
        "outcomes_differ": len(outcomes) > 1,
        "examples": [e for r in reps for e in r.get("examples", [])][:10],
    }
    if workload == "suite":
        details["report_sha256"] = sorted({r["report_sha256"] for r in reps})
        details["untimed_sha256"] = reps[0]["untimed_sha256"]
        details["timed_rows_failed"] = [row for r in reps for row in r["timed_failed"]]
        details["operation"] = "one check stage; op_us percentiles are time-weighted, median over repetitions"
        stages = {name: statistics.median(r["stages_ns"][name] for r in reps) / 1e9
                  for name in reps[0]["stages_ns"]}
        details["stage_s"] = stages
    else:
        details["inputs"] = {k: {"count": c, "bytes": b}
                             for k, (c, b) in reps[0]["inputs"].items()}
        details["op_bytes"] = reps[0]["op_bytes"]

    layers = None
    if trace:
        stem = OUT / workload
        *_, traced = run_child(workload, str(seed), "0", "--trace", str(stem))
        outcomes.add(_outcome(traced))
        details["outcomes_differ"] = len(outcomes) > 1
        correct = correct and traced["correct"]
        layers = dict(traced["layers"])
        for name, value in details.get("stage_s", {}).items():
            layers[f"harness.stage.{name.replace(':', '.')}_s"] = value
        layers["trace.overhead_s"] = traced["wall_ns"] / 1e9 - end_to_end["wall_s"]
        if workload == "suite":
            details["report_sha256_traced"] = traced["report_sha256"]
        details["trace_missing"] = traced["missing"]
        details["spans"] = f"{stem.relative_to(ROOT)}.spans"
    correct = correct and len(outcomes) == 1
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "layers": layers, "details": details}


def _metrics(spec: list[dict], values: dict, required: bool) -> tuple[dict, list]:
    """Values for every metric in spec; absent ones are an error when
    required, else reported as 0 and listed."""
    out, absent = {}, []
    for m in spec:
        if m["name"] not in values:
            if required:
                raise BenchError(f"metric {m['name']} was not measured")
            absent.append(m["name"])
        out[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return out, absent


def report(workload: str, summary: dict, spec: dict, trace: bool) -> dict:
    e2e, _ = _metrics(spec["end_to_end"], summary["end_to_end"], required=True)
    details = summary["details"]
    print(f"{workload}: seed {details['seed']}, {details['repetitions']} repetitions, "
          f"{summary['attempted']} operations, {summary['failed']} failed, "
          f"correct={summary['correct']}")
    if details.get("timed_rows_failed"):
        print("  timing-judged rows failed (not counted): "
              + ", ".join(details["timed_rows_failed"]))
    for name, m in e2e.items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    metrics = e2e
    if trace:
        metrics, absent = _metrics(spec["per_layer"], summary["layers"], required=False)
        listed = {m["name"] for m in spec["per_layer"]}
        details["layers_absent"] = absent
        details["layers_unlisted"] = sorted(set(summary["layers"]) - listed)
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    path = OUT / f"{workload}-seed{details['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("details", json.dumps(details, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "polytract" / "__init__.py").is_file():
            raise BenchError(f"no polytract sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        OUT.mkdir(exist_ok=True)
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in chosen:
            summary = measure(workload, args.seed, seconds, bool(args.trace))
            metrics = report(workload, summary, spec, bool(args.trace))
            result["correct"] = result["correct"] and summary["correct"]
            result["attempted"] += summary["attempted"]
            result["failed"] += summary["failed"]
            prefix = "" if len(chosen) == 1 else f"{workload}."
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
