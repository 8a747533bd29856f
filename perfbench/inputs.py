"""Seeded inputs for the benchmark, built from the documented byte formats.

Nothing here imports polytract, so a change to the package's own
generators cannot change what the benchmark feeds it. Every function
takes a random.Random; callers seed it from a string, which Python hashes
the same way in every process.

Formats (see the package docstrings):
  bds     "n m\\n" numbering line, m edge lines "u v\\n", query tail "u v"
  qbds    the graph block, one '#', the query tail
  cvp     one "<id> <kind> <args>" line per node, ids dense from 1
  corpus  UTF-8 text of whitespace-separated words
  query   "<word> <k>" asking whether word occurs at least k times
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# The package's documented default lexicon. The reference labels assume
# it, so the benchmark refuses to run if the package's default differs.
LEXICON = (
    "about", "against", "among", "at", "between", "by", "during", "for",
    "from", "in", "into", "of", "on", "onto", "over", "through", "to",
    "under", "upon", "with",
)
FILLER = (
    "lamp", "ship", "Harbor", "river", "STONE", "glass", "wind", "paper",
    "café", "über", "naïve", "garden", "tower", "bridge", "Window", "salt",
    "iron", "wolf", "maple", "ember", "echo", "fern", "quartz", "violet",
)
SEPARATORS = (" ", " ", " ", " ", "\n", "  ", "\t")


@dataclass(frozen=True)
class BdsCase:
    block: bytes
    tail: bytes
    verdict: bool

    @property
    def bds(self) -> bytes:
        return self.block + self.tail

    @property
    def qbds(self) -> bytes:
        return self.block + b"#" + self.tail


@dataclass(frozen=True)
class CvpCase:
    text: bytes
    verdict: bool


@dataclass(frozen=True)
class CountCase:
    text: bytes
    query: bytes
    verdict: bool


def bds_case(rng: random.Random, n: int, oracle) -> BdsCase:
    """A numbered graph on n >= 2 nodes with edges listed in random order
    and orientation; oracle(numbering, edges, u, v) labels it."""
    numbering = list(range(1, n + 1))
    rng.shuffle(numbering)
    density = rng.uniform(0.1, 0.5)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < density]
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    u, v = rng.sample(range(1, n + 1), 2)
    lines = [f"{n} {len(edges)}", " ".join(map(str, numbering))]
    lines += [f"{a} {b}" for a, b in edges]
    block = ("\n".join(lines) + "\n").encode("ascii")
    return BdsCase(block, f"{u} {v}".encode("ascii"), oracle(numbering, edges, u, v))


def cvp_case(rng: random.Random, size: int, oracle) -> CvpCase:
    """A valid circuit of size >= 2 nodes; half of them get their ids
    shuffled so references also point forward."""
    n_inputs = 1 + rng.randrange(min(4, size - 1))
    nodes = [("input", rng.randrange(2)) for _ in range(n_inputs)]
    for _ in range(size - n_inputs - 1):
        op = rng.choice(("not", "and", "and", "or", "or"))
        arity = 1 if op == "not" else 2
        nodes.append((op, *(1 + rng.randrange(len(nodes)) for _ in range(arity))))
    nodes.append(("output", 1 + rng.randrange(len(nodes))))
    ids = list(range(1, size + 1))
    if rng.random() < 0.5:
        rng.shuffle(ids)
    relabel = dict(zip(range(1, size + 1), ids))
    table = {}
    for old, (kind, *args) in enumerate(nodes, 1):
        table[relabel[old]] = (kind, *(a if kind == "input" else relabel[a] for a in args))
    text = "".join(
        f"{i} {table[i][0]} " + " ".join(map(str, table[i][1:])) + "\n"
        for i in range(1, size + 1)
    ).encode("ascii")
    return CvpCase(text, oracle(table))


def corpus_text(rng: random.Random, tokens: int) -> bytes:
    words = []
    for _ in range(tokens):
        if rng.random() < 0.35:
            word = rng.choice(LEXICON)
            words.append(word.upper() if rng.random() < 0.05 else word)
        else:
            words.append(rng.choice(FILLER))
        words.append(rng.choice(SEPARATORS))
    return "".join(words[:-1]).encode("utf-8")


def count_cases(rng: random.Random, text: bytes, queries: int, oracle) -> list[CountCase]:
    """Count queries against one corpus, members and non-members mixed;
    oracle(text, word, k) labels each."""
    out = []
    for _ in range(queries):
        word = rng.choice(LEXICON) if rng.random() < 0.9 else rng.choice(FILLER).lower()
        k = rng.randint(0, text.count(word.encode()) + 2)
        out.append(CountCase(text, f"{word} {k}".encode("utf-8"), oracle(text, word, k)))
    return out


# ------------------------------------------------------------ hostile bytes

_SPECIALS = b"#@\\"
_NON_UTF8 = (b"\xff", b"\xfe", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x80")
_BYTES = range(256)
_CUM_WEIGHTS = list(itertools.accumulate(60.0 if b in _SPECIALS else 40 / 253 for b in _BYTES))


def escape_dense_payload(rng: random.Random) -> bytes:
    """60% '#', '@' and '\\', the rest any byte; lengths spread from 0 to
    16 KiB with most under 256."""
    size = min(int(rng.expovariate(1 / 160)), 16384)
    return bytes(rng.choices(_BYTES, cum_weights=_CUM_WEIGHTS, k=size))


def mutate(rng: random.Random, x: bytes) -> bytes:
    """One to three edits: flips, inserted delimiters and escapes, non-UTF-8
    bytes, truncation, duplication."""
    data = bytearray(x)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(data))
        kind = rng.randrange(6)
        if kind == 0 and data:
            data[min(pos, len(data) - 1)] ^= 1 << rng.randrange(8)
        elif kind == 1:
            data[pos:pos] = bytes([rng.choice(_SPECIALS)])
        elif kind == 2:
            data[pos:pos] = rng.choice(_NON_UTF8)
        elif kind == 3:
            del data[pos:]
        elif kind == 4:
            data[pos:pos] = data[rng.randint(0, pos):pos]
        else:
            del data[pos:pos + rng.randint(1, 4)]
    return bytes(data)


def junk(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
