"""Operations of the small-sweep and hostile-bytes workloads.

An operation is one call into polytract made by the benchmark's closed
loop, with the check its output must pass. Checks run after the timed
region. Inputs come from inputs.py and labels from oracles.py, so neither
depends on the package under test.

small-sweep asks small well-formed instances for verdicts. Every bds graph
is asked twice, once in its bds form and once in its qbds form, so a
verdict cache sees one miss and one hit per graph.

hostile-bytes round-trips escape-dense payloads through the pair and
packed encodings, feeds mutated encodings to the decoders, and feeds
mutated, truncated and non-UTF-8 bytes to every total callable of the
catalog. A totality call that raises is counted as failed; it is the
package's defect to fix, so it is neither filtered out nor called wrong.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import calibration
import inputs
import oracles


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    nbytes: int


class Raised:
    """Outcome of an operation that raised instead of returning."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = f"{type(error).__name__}: {error}"[:200]


REJECTED = object()


def _is(expected):
    return lambda out: out is expected


def _bds_label(numbering, edges, u, v):
    return oracles.bds_before(numbering, edges, u, v)


def _count_label(text, word, k):
    return oracles.count_at_least(text, word, k, inputs.LEXICON)


# ------------------------------------------------------------ small-sweep


def small_sweep(pt, cat, rng: random.Random, graphs: int, circuits: int,
                corpora: int, queries: int) -> tuple[list[Op], dict]:
    """Verdict operations on small instances, in shuffled order."""
    fr, f = cat.fcr_reductions, cat.f_reductions

    def factored(name, x, verdict):
        fl = cat.factored[name]
        fact, membership = fl.fact, fl.induced_pairs_language().membership

        def op():
            d, q = fact.data_part(x), fact.query_part(x)
            return fact.restore(d, q), membership(d, q)
        return op, lambda out: out[0] == x and out[1] is verdict

    def fcr(name, x, verdict):
        entry = fr[name]
        r = entry.reduction

        def op():
            d, q = r.source_fact.data_part(x), r.source_fact.query_part(x)
            return entry.target_member(r.target_fact.restore(r.map_data(d), r.map_query(q)))
        return op, _is(verdict)

    def f_map(name, d, q, verdict):
        entry = f[name]
        r = entry.reduction
        return (lambda: entry.target.membership(r.map_data(d), r.map_query(q)),
                _is(verdict))

    def witness(name, data, query, verdict):
        entry = cat.witnesses[name]
        pair = pt.Pair(data, query)
        sides = ([pair], []) if verdict else ([], [pair])
        return (partial(pt.verify_witness, entry.language, entry.witness, *sides),
                lambda rep: rep.passed)

    def member(fn, *args, verdict):
        return partial(fn, *args), _is(verdict)

    bds_kinds = {
        "problem:bds": lambda c: member(cat.problems["bds"].member, c.bds, verdict=c.verdict),
        "factored:bds-all-data": lambda c: factored(
            "bds-all-data", c.bds, c.verdict),
        "witness:bds-verdict-bit": lambda c: witness("bds-verdict-bit", c.bds, b"", c.verdict),
        "reduction:bds-identity": lambda c: fcr("bds-identity", c.bds, c.verdict),
    }
    qbds_kinds = {
        "problem:qbds": lambda c: member(cat.problems["qbds"].member, c.qbds, verdict=c.verdict),
        "pairs:qbds-pairs": lambda c: member(
            cat.pair_languages["qbds-pairs"].membership, c.block, c.tail, verdict=c.verdict),
        "factored:qbds-all-data": lambda c: factored(
            "qbds-all-data", c.qbds, c.verdict),
        "factored:qbds-absorb": lambda c: factored(
            "qbds-absorb", c.qbds, c.verdict),
        "reduction:qbds-identity": lambda c: fcr("qbds-identity", c.qbds, c.verdict),
        "reduction:qbds-to-bds": lambda c: fcr("qbds-to-bds", c.qbds, c.verdict),
    }
    cvp_kinds = {
        "problem:cvp": lambda c: member(cat.problems["cvp"].member, c.text, verdict=c.verdict),
        "pairs:cvp-pairs": lambda c: member(
            cat.pair_languages["cvp-pairs"].membership, c.text, b"", verdict=c.verdict),
        "factored:cvp-all-data": lambda c: factored(
            "cvp-all-data", c.text, c.verdict),
        "witness:cvp-verdict-bit": lambda c: witness("cvp-verdict-bit", c.text, b"", c.verdict),
        "reduction:cvp-identity": lambda c: f_map("cvp-identity", c.text, b"", c.verdict),
        "reduction:cvp-double-negation": lambda c: f_map(
            "cvp-double-negation", c.text, b"", c.verdict),
    }
    count_kinds = {
        "pairs:wordstats-pairs": lambda c: member(
            cat.pair_languages["wordstats-pairs"].membership, c.text, c.query,
            verdict=c.verdict),
        "witness:wordstats-count-digest": lambda c: witness(
            "wordstats-count-digest", c.text, c.query, c.verdict),
    }

    ops: list[Op] = []
    stats = {"bds graphs": [0, 0], "cvp circuits": [0, 0], "corpora": [0, 0],
             "count queries": [0, 0]}

    def add(kinds, i, case, nbytes):
        name = list(kinds)[i % len(kinds)]
        call, check = kinds[name](case)
        ops.append(Op(name, call, check, nbytes))

    for i in range(graphs):
        case = inputs.bds_case(rng, rng.randint(5, 30), _bds_label)
        stats["bds graphs"][0] += 1
        stats["bds graphs"][1] += len(case.bds)
        add(bds_kinds, i, case, len(case.bds))
        add(qbds_kinds, i, case, len(case.qbds))
    for i in range(circuits):
        case = inputs.cvp_case(rng, rng.randint(2, 14), oracles.cvp_value)
        stats["cvp circuits"][0] += 1
        stats["cvp circuits"][1] += len(case.text)
        add(cvp_kinds, i, case, len(case.text))
    for i in range(corpora):
        text = inputs.corpus_text(rng, rng.randint(20, 2000))
        stats["corpora"][0] += 1
        stats["corpora"][1] += len(text)
        for j, case in enumerate(inputs.count_cases(rng, text, queries, _count_label)):
            stats["count queries"][0] += 1
            stats["count queries"][1] += len(case.query)
            add(count_kinds, i * queries + j, case, len(case.text) + len(case.query))
    rng.shuffle(ops)
    return ops, stats


# ---------------------------------------------------------- hostile-bytes


def _digest(text: bytes) -> bytes:
    """Count digest in the documented form: one width byte, then the
    lexicon counts packed big-endian at that width."""
    tokens = [t.lower() for t in text.decode("utf-8").split()]
    width = len(tokens).bit_length()
    acc = 0
    for word in inputs.LEXICON:
        acc = acc << width | tokens.count(word)
    return bytes([width]) + acc.to_bytes((width * len(inputs.LEXICON) + 7) // 8, "big")


def _bds_specimen(rng: random.Random) -> inputs.BdsCase:
    return inputs.bds_case(rng, rng.randint(2, 12), lambda *a: None)


def _query_specimen(rng: random.Random) -> bytes:
    return f"{rng.choice(inputs.LEXICON)} {rng.randint(0, 4)}".encode()


# One valid specimen of every byte format a total callable expects.
SPECIMENS = {
    "bds": lambda rng: _bds_specimen(rng).bds,
    "qbds": lambda rng: _bds_specimen(rng).qbds,
    "block": lambda rng: _bds_specimen(rng).block,
    "tail": lambda rng: _bds_specimen(rng).tail,
    "cvp": lambda rng: inputs.cvp_case(rng, rng.randint(2, 10), lambda t: None).text,
    "corpus": lambda rng: inputs.corpus_text(rng, rng.randint(1, 60)),
    "query": _query_specimen,
    "digest": lambda rng: _digest(inputs.corpus_text(rng, rng.randint(1, 60))),
    "bit": lambda rng: rng.choice((b"0", b"1")),
    "empty": lambda rng: b"",
}


def _domain(name: str) -> str:
    """The byte format a catalog entry expects, judged by its name. The
    absorbed qbds factorization's data part is a graph block with its
    query riding behind it, which is the bds form."""
    for key, family in (("qbds-pairs", "block"), ("qbds-absorb", "bds"), ("qbds", "qbds"),
                        ("bds", "bds"), ("cvp", "cvp"), ("wordstats", "corpus")):
        if key in name:
            return family
    return "empty"


def _total_callables(cat) -> list[tuple[str, Callable, tuple[str, ...], type]]:
    """Every callable the package declares total on bytes: (name, function,
    argument formats, return type)."""
    out = []
    for name, entry in sorted(cat.problems.items()):
        out.append((f"problem:{name}", entry.member, (_domain(name),), bool))
    for name, lang in sorted(cat.pair_languages.items()):
        query = {"block": "tail", "corpus": "query"}.get(_domain(name), "empty")
        out.append((f"pairs:{name}", lang.membership, (_domain(name), query), bool))
    for name, entry in sorted(cat.witnesses.items()):
        w = entry.witness
        post = ("digest", "query") if _domain(name) == "corpus" else ("bit", "empty")
        out.append((f"post:{name}", w.post_language.membership, post, bool))
        out.append((f"preprocess:{name}", w.preprocess, (_domain(name),), bytes))
    for name, fl in sorted(cat.factored.items()):
        instance = "qbds" if name.startswith("qbds") else _domain(name)
        out.append((f"data_part:{name}", fl.fact.data_part, (instance,), bytes))
        out.append((f"restore:{name}", fl.fact.restore, (_domain(name), "empty"), bytes))
    return out


def _hostile_arg(rng: random.Random, specimen: bytes) -> bytes:
    roll = rng.random()
    if roll < 0.7:
        return inputs.mutate(rng, specimen)
    if roll < 0.85:
        return specimen
    if roll < 0.95:
        return inputs.junk(rng)
    return inputs.escape_dense_payload(rng)


def hostile_bytes(pt, cat, rng: random.Random, payload_pairs: int,
                  total_calls: int) -> tuple[list[Op], dict]:
    """Round trips, decoder rejects and totality calls, in shuffled order."""
    Malformed = pt.errors.MalformedInstance
    ops: list[Op] = []
    stats = {"payloads": [0, 0], "mutated encodings": [0, 0],
             "totality arguments": [0, 0]}

    def tally(key, *blobs):
        stats[key][0] += len(blobs)
        stats[key][1] += sum(map(len, blobs))

    def roundtrip(encode, decode, a, b, want):
        def op():
            z = encode(a, b)
            return z, decode(z)
        return op, lambda out: out[0] == want and tuple(out[1]) == (a, b)

    def reject(decode, x, expected):
        def op():
            try:
                return tuple(decode(x))
            except Malformed:
                return REJECTED
        return op, lambda out: out == (REJECTED if expected is None else expected)

    def pair_encode(a, b):
        return pt.encode_pair(pt.Pair(a, b))

    def pair_decode(z):
        p = pt.decode_pair(z)
        return p.data, p.query

    codecs = (("pair", pair_encode, pair_decode, b"#"),
              ("pack", pt.pack_at, pt.split_packed, b"@"))
    for _ in range(payload_pairs):
        a, b = inputs.escape_dense_payload(rng), inputs.escape_dense_payload(rng)
        tally("payloads", a, b)
        escaped_a, escaped_b = oracles.escape(a), oracles.escape(b)
        for name, encode, decode, delim in codecs:
            encoded = escaped_a + delim + escaped_b
            call, check = roundtrip(encode, decode, a, b, encoded)
            ops.append(Op(f"roundtrip:{name}", call, check, len(a) + len(b)))
            x = inputs.mutate(rng, encoded)
            tally("mutated encodings", x)
            call, check = reject(decode, x, oracles.decode(x, delim))
            ops.append(Op(f"reject:{name}", call, check, len(x)))

    callables = _total_callables(cat)
    for i in range(total_calls):
        name, fn, formats, returns = callables[i % len(callables)]
        args = tuple(_hostile_arg(rng, SPECIMENS[fmt](rng)) for fmt in formats)
        tally("totality arguments", *args)
        ops.append(Op(f"total:{name}", partial(fn, *args),
                      (lambda t: lambda out: type(out) is t)(returns),
                      sum(map(len, args))))
    rng.shuffle(ops)
    return ops, stats


def run_ops(ops: list[Op], clock, chunks: int,
            tracer=None) -> tuple[float, list[float], list, int]:
    """The closed loop: one caller, next call after the previous returns.

    The operations run in `chunks` timed chunks with a calibration slice
    before the first and after each (see calibration.py). Returns (wall
    ns, per-call ns, outcomes, raw wall ns); the first two are scaled to
    the reference speed.
    """
    lat = [0.0] * len(ops)
    out: list = [None] * len(ops)
    timeline = calibration.Timeline(calibration.Calibrator(), clock)
    bounds = [len(ops) * c // chunks for c in range(chunks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        for i in range(lo, hi):
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            try:
                out[i] = ops[i].call()
            except Exception as exc:  # recorded as a failed operation
                out[i] = Raised(exc)
            lat[i] = clock() - t0
        scale = timeline.boundary()
        for i in range(lo, hi):
            lat[i] *= scale
    return timeline.scaled, lat, out, timeline.raw


def judge(ops: list[Op], outcomes: list) -> dict:
    """Check every outcome after the timed region.

    wrong counts outputs that fail their check; raised counts calls that
    raised, keyed by operation kind and error type. A raise is wrong too,
    except in a totality call, where it is the failure being measured.
    """
    wrong: dict[str, int] = {}
    raised: dict[str, int] = {}
    examples: list[str] = []
    failed = 0
    for op, result in zip(ops, outcomes):
        is_raise = isinstance(result, Raised)
        if not is_raise and op.check(result):
            continue
        failed += 1
        if is_raise:
            key = f"{op.kind} {result.error.split(':', 1)[0]}"
            raised[key] = raised.get(key, 0) + 1
            if op.kind.startswith("total:"):
                continue
        wrong[op.kind] = wrong.get(op.kind, 0) + 1
        if len(examples) < 5:
            shown = result.error if is_raise else repr(result)[:200]
            examples.append(f"{op.kind}: {shown}")
    return {"failed": failed, "wrong": wrong, "raised": raised, "examples": examples}
