"""Per-layer tracing from outside the package.

Tracer.install wraps public functions of polytract before the catalog is
built, because catalog entries capture functions when they are built.
A name bound by `from .encoding import decode_pair` is a separate binding
in every importing module, so each binding of the original function is
replaced. Every wrapped call records a span (name, start, end, parent,
request) in flat in-memory arrays; spans are written out once, at the end.

A layer's self time is its spans' duration minus the time their direct
child spans cover. Spans nest strictly because there is one thread.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array

# (module under polytract, function, report payload bytes and raises)
TARGETS = (
    ("encoding", "encode_pair", True),
    ("encoding", "decode_pair", True),
    ("encoding", "pack_at", True),
    ("encoding", "split_packed", True),
    ("encoding", "escape_payload", True),
    ("encoding", "unescape_payload", True),
    ("problems.bds", "random_sparse_graph", False),
    ("problems.bds", "random_instance", False),
    ("problems.cvp", "random_circuit", False),
    ("problems.wordstats", "random_corpus_text", False),
    ("problems.bds", "bds_order", False),
    ("problems.bds", "bds_decide", False),
    ("problems.bds", "bds_member", False),
    ("problems.cvp", "cvp_member", False),
    ("problems.cvp", "cvp_eval", False),
    ("problems.wordstats", "pair_member", False),
    ("problems.wordstats", "preposition_digest", False),
    ("problems.bds", "parse_instance", False),
    ("problems.bds", "parse_graph", False),
    ("problems.bds", "parse_graph_block", False),
    ("problems.bds", "make_graph", False),
    ("problems.bds", "split_block_tail", False),
    ("problems.cvp", "parse_circuit", False),
    ("problems.cvp", "validate_circuit", False),
    ("problems.wordstats", "corpus_from_text", False),
    ("problems.wordstats", "parse_digest_instance", False),
    ("factorization", "verify_factorization", False),
    ("factorization", "check_prop1", False),
    ("preprocessing", "verify_witness", False),
    ("preprocessing", "digest_size_ladder", False),
    ("reductions", "verify_fcr_reduction", False),
    ("reductions", "verify_f_reduction", False),
    ("reductions", "compose_fcr", False),
    ("separation", "separation_report", False),
    ("catalog", "qbds_member", False),
    ("harness", "time_interleaved_ns", False),
)

# Witness samplers that draw one instance per labeled pair and reject
# draws until both sides are full; their draws are calls to DRAWS.
REJECTION_SAMPLERS = ("bds-verdict-bit", "cvp-verdict-bit")
DRAWS = ("problems.bds.random_instance", "problems.cvp.random_circuit")

FIELDS = ("name", "start_ns", "end_ns", "parent", "request")


def _payload_bytes(args) -> int:
    total = 0
    for a in args:
        if isinstance(a, (bytes, bytearray)):
            total += len(a)
        elif hasattr(a, "data") and hasattr(a, "query"):
            total += len(a.data) + len(a.query)
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.nbytes: list[int] = []
        self.counted: set[int] = set()
        self.request = 0
        self.missing: list[str] = []
        self.bds_order = None
        self.drawn = 0
        self.kept = 0

    def wrap(self, name: str, fn, count_bytes: bool):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.raised.append(0)
        self.nbytes.append(0)
        if count_bytes:
            self.counted.add(nid)
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans) // 5
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1, self.request))
            stack.append(idx)
            calls[nid] += 1
            if count_bytes:
                self.nbytes[nid] += _payload_bytes(args)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[nid] += 1
                raise
            finally:
                stack.pop()
                spans[idx * 5 + 2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TARGETS function of the imported polytract package."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "polytract" or n.startswith("polytract."))]
        for modname, fname, count_bytes in TARGETS:
            name = f"{modname}.{fname}"
            home = sys.modules.get(f"polytract.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                self.missing.append(name)
                continue
            if name == "problems.bds.bds_order":
                self.bds_order = original
            rebind(modules, original, self.wrap(name, original, count_bytes))
        catalog = sys.modules["polytract.catalog"]
        rebind(modules, catalog.build_catalog, self._counting_catalog(catalog.build_catalog))

    def _counting_catalog(self, build):
        """build_catalog whose rejection samplers tally draws and keeps."""
        draw_ids = [self.names.index(n) for n in DRAWS if n in self.names]

        def sampler(inner):
            def sample_pairs(*args, **kwargs):
                before = sum(self.calls[i] for i in draw_ids)
                pos, neg = inner(*args, **kwargs)
                self.drawn += sum(self.calls[i] for i in draw_ids) - before
                self.kept += len(pos) + len(neg)
                return pos, neg
            return sample_pairs

        def build_catalog(config):
            cat = build(config)
            for name in REJECTION_SAMPLERS:
                entry = cat.witnesses.get(name)
                if entry is not None:
                    cat.witnesses[name] = dataclasses.replace(
                        entry, sample_pairs=sampler(entry.sample_pairs))
            return cat

        return build_catalog

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per traced function, plus the layer extras."""
        spans = self.spans
        count = len(spans) // 5
        covered = [0] * count
        self_ns = [0] * len(self.names)
        for i in range(count):
            base = i * 5
            duration = spans[base + 2] - spans[base + 1]
            parent = spans[base + 3]
            if parent >= 0:
                covered[parent] += duration
        for i in range(count):
            base = i * 5
            self_ns[spans[base]] += spans[base + 2] - spans[base + 1] - covered[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            if nid in self.counted:
                out[f"{name}.bytes"] = self.nbytes[nid]
                out[f"{name}.raised"] = self.raised[nid]
        cache_info = getattr(self.bds_order, "cache_info", None)
        if cache_info is not None:
            info = cache_info()
            asked = info.hits + info.misses
            out["problems.bds.bds_order.cache_hit_ratio"] = info.hits / asked if asked else 0.0
            out["problems.bds.bds_order.cache_currsize"] = info.currsize
        out["catalog.sample_pairs.accept_ratio"] = (
            self.kept / self.drawn if self.drawn else 0.0)
        out["trace.spans"] = count
        return out

    def write(self, stem: str, meta: dict) -> None:
        """Spans as native-endian int64 records of FIELDS, names beside them."""
        with open(stem + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": FIELDS, "names": self.names,
                       "count": len(self.spans) // 5, "byteorder": sys.byteorder},
                      fh, indent=1)


def rebind(modules, original, replacement) -> None:
    """Replace every binding of original in modules."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
