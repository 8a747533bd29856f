"""Independent reference implementations used to cross-check the package.

Everything here is written against the problem statements, not against
the package code: different data layouts, different traversal styles, no
imports from the modules under test except for plain data containers and
the exception classes the package raises.

The byte-level references further down are the plain loops the package's
kernels replaced: per-byte escape scans, line-wise graph parsing and the
two-pass circuit parse. They raise the same exception classes with the
same messages, so differential tests can compare failures as well.
"""
from __future__ import annotations

import random
from collections import deque
from functools import lru_cache

from polytract.errors import (
    ArityError,
    CyclicCircuit,
    DanglingRef,
    MalformedCircuit,
    MalformedGraph,
    MalformedInstance,
)


def bds_order_oracle(n: int, numbering, edges) -> tuple[int, ...]:
    """Stack simulation of the breadth-depth traversal, done over numbers.

    Relabels every node by its number first, simulates the traversal in
    number space where "smallest" is plain integer order, then maps the
    resulting number sequence back to node ids.
    """
    num = {node: numbering[node - 1] for node in range(1, n + 1)}
    node_of = {v: k for k, v in num.items()}
    adj: dict[int, set[int]] = {num[i]: set() for i in range(1, n + 1)}
    for u, v in edges:
        adj[num[u]].add(num[v])
        adj[num[v]].add(num[u])

    seen: set[int] = set()
    seq: list[int] = []
    stack: list[int] = []
    while len(seq) < n:
        if stack:
            cur = stack.pop()
        else:
            cur = min(x for x in adj if x not in seen)
            seen.add(cur)
            seq.append(cur)
        fresh = sorted(x for x in adj[cur] if x not in seen)
        seq.extend(fresh)
        seen.update(fresh)
        stack.extend(reversed(fresh))
    return tuple(node_of[x] for x in seq)


def cvp_eval_oracle(nodes) -> bool:
    """Memoized top-down evaluation starting from the output node.

    nodes is a sequence of ("input", bit) / ("not", a) / ("and", a, b) /
    ("or", a, b) / ("output", a) tuples with 1-based references. Assumes
    a structurally valid circuit (exactly one output, acyclic wiring).
    """
    out_ref = next(node[1] for node in nodes if node[0] == "output")

    @lru_cache(maxsize=None)
    def value(i: int) -> bool:
        node = nodes[i - 1]
        kind = node[0]
        if kind == "input":
            return bool(node[1])
        if kind == "not":
            return not value(node[1])
        if kind == "and":
            return value(node[1]) and value(node[2])
        if kind == "or":
            return value(node[1]) or value(node[2])
        return value(node[1])  # output, only reachable if queried directly

    return value(out_ref)


def count_word_oracle(text: bytes, word: str) -> int:
    """Case-folded whole-token occurrence count by a manual scan."""
    total = 0
    for token in text.decode("utf-8").split():
        if token.lower() == word:
            total += 1
    return total


def factorial_oracle(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# ------------------------------------------------------------ encoding

ESCAPE = 0x5C
_UNESCAPES = {ord("h"): 0x23, ord("a"): 0x40, ord("\\"): 0x5C}


def unescaped_positions_oracle(x: bytes, delim: int) -> list[int]:
    """Offsets of structural delimiters: an even escape run precedes them."""
    positions = []
    run = 0
    for i, b in enumerate(x):
        if b == delim and run % 2 == 0:
            positions.append(i)
        run = run + 1 if b == ESCAPE else 0
    return positions


def unescape_oracle(escaped: bytes) -> bytes:
    """Byte-by-byte inverse of the escaping; raises on the first bad token."""
    out = bytearray()
    i, n = 0, len(escaped)
    while i < n:
        b = escaped[i]
        if b == ESCAPE:
            if i + 1 >= n:
                raise MalformedInstance("dangling escape byte at end of payload")
            try:
                out.append(_UNESCAPES[escaped[i + 1]])
            except KeyError:
                raise MalformedInstance(
                    f"unknown escape sequence at offset {i}"
                ) from None
            i += 2
        elif b in (0x23, 0x40):
            raise MalformedInstance(f"unescaped delimiter at offset {i}")
        else:
            out.append(b)
            i += 1
    return bytes(out)


# ------------------------------------------------------------ graphs


def _int_fields(line: bytes, lineno: int, want: int) -> list[int]:
    parts = line.split()
    if len(parts) != want:
        raise MalformedGraph(f"line {lineno}: expected {want} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise MalformedGraph(f"line {lineno}: non-integer field") from None


def make_graph_oracle(n: int, numbering, edges):
    """(n, numbering, canonical edge set), checking each edge in order."""
    if n < 1:
        raise MalformedGraph("graph needs at least one node")
    numbering = tuple(numbering)
    if sorted(numbering) != list(range(1, n + 1)):
        raise MalformedGraph("numbering is not a bijection onto 1..n")
    canon = set()
    for u, v in edges:
        if u == v:
            raise MalformedGraph(f"self-loop at node {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise MalformedGraph(f"edge ({u}, {v}) leaves the node range")
        e = (u, v) if u < v else (v, u)
        if e in canon:
            raise MalformedGraph(f"duplicate edge ({e[0]}, {e[1]})")
        canon.add(e)
    return n, numbering, frozenset(canon)


def split_block_tail_oracle(data: bytes) -> tuple[bytes, bytes]:
    """Walk the header's line count newline by newline."""
    first_nl = data.find(b"\n")
    if first_nl < 0:
        raise MalformedGraph("line 1: missing newline after header")
    n, m = _int_fields(data[:first_nl], 1, 2)
    if n < 1:
        raise MalformedGraph("line 1: node count must be positive")
    if m < 0:
        raise MalformedGraph("line 1: negative edge count")
    pos = first_nl + 1
    for lineno in range(2, 2 + m + 1):
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise MalformedGraph(f"line {lineno}: truncated block")
        pos = nl + 1
    return data[:pos], data[pos:]


def parse_graph_block_oracle(data: bytes):
    """((n, numbering, edges), rest), parsing the block line by line."""
    block, rest = split_block_tail_oracle(data)
    lines = block.split(b"\n")
    n, m = _int_fields(lines[0], 1, 2)
    numbering = _int_fields(lines[1], 2, n)
    edges = [tuple(_int_fields(lines[2 + j], 3 + j, 2)) for j in range(m)]
    return make_graph_oracle(n, numbering, edges), rest


def graph_text_oracle(n: int, numbering, edges) -> bytes:
    """The documented text form, edge lines in sorted order."""
    lines = [f"{n} {len(edges)}", " ".join(str(x) for x in numbering)]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return ("\n".join(lines) + "\n").encode("ascii")


def sparse_graph_oracle(n: int, rng: random.Random, avg_degree: float = 4.0):
    """(numbering, edges) drawn edge by edge with rng.sample."""
    numbering = list(range(1, n + 1))
    rng.shuffle(numbering)
    target = min(int(avg_degree * n / 2), n * (n - 1) // 2)
    edges = set()
    while len(edges) < target:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((u, v) if u < v else (v, u))
    return tuple(numbering), frozenset(edges)


# ------------------------------------------------------------ circuits

_ARITY = {"input": 1, "not": 1, "and": 2, "or": 2, "output": 1}


def parse_circuit_oracle(data: bytes) -> tuple:
    """Node tuples of a circuit text: parse every line, then validate."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedCircuit("circuit text is not ASCII") from None
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    nodes = []
    for lineno, line in enumerate(raw_lines, 1):
        parts = line.split()
        if len(parts) < 2:
            raise MalformedCircuit(f"line {lineno}: expected '<id> <kind> ...'")
        try:
            node_id = int(parts[0])
        except ValueError:
            raise MalformedCircuit(f"line {lineno}: non-integer id") from None
        if node_id != lineno:
            raise MalformedCircuit(
                f"line {lineno}: ids must be dense from 1, got {node_id}"
            )
        kind = parts[1]
        if kind not in _ARITY:
            raise MalformedCircuit(f"line {lineno}: unknown kind {kind!r}")
        args = parts[2:]
        if len(args) != _ARITY[kind]:
            raise ArityError(
                f"line {lineno}: {kind} takes {_ARITY[kind]} argument(s), got {len(args)}"
            )
        try:
            values = [int(a) for a in args]
        except ValueError:
            raise MalformedCircuit(f"line {lineno}: non-integer argument") from None
        if kind == "input":
            if values[0] not in (0, 1):
                raise MalformedCircuit(f"line {lineno}: input must be 0 or 1")
            nodes.append(("input", bool(values[0])))
        else:
            nodes.append((kind, *values))
    _validate_circuit(nodes)
    return tuple(nodes)


def _validate_circuit(nodes) -> None:
    n = len(nodes)
    if n == 0:
        raise MalformedCircuit("circuit has no nodes")
    refs = [() if node[0] == "input" else node[1:] for node in nodes]
    for i, rs in enumerate(refs, 1):
        for ref in rs:
            if not (1 <= ref <= n):
                raise DanglingRef(f"node {i}: reference to missing node {ref}")
    outputs = [i for i, node in enumerate(nodes, 1) if node[0] == "output"]
    if len(outputs) != 1:
        raise MalformedCircuit(f"need exactly one output node, found {len(outputs)}")
    for i, rs in enumerate(refs, 1):
        if outputs[0] in rs:
            raise MalformedCircuit(f"node {i}: references the output node")
    # Acyclic iff repeatedly removing nodes whose refs are all removed
    # removes every node.
    waiting = [len(set(rs)) for rs in refs]
    users: list[set[int]] = [set() for _ in range(n + 1)]
    for i, rs in enumerate(refs, 1):
        for ref in set(rs):
            users[ref].add(i)
    ready = deque(i for i in range(1, n + 1) if waiting[i - 1] == 0)
    removed = 0
    while ready:
        i = ready.popleft()
        removed += 1
        for j in users[i]:
            waiting[j - 1] -= 1
            if waiting[j - 1] == 0:
                ready.append(j)
    if removed != n:
        raise CyclicCircuit("wiring contains a cycle")


def circuit_text_oracle(nodes) -> bytes:
    """The documented text form, one '<id> <kind> <args>' line per node."""
    lines = []
    for i, node in enumerate(nodes, 1):
        kind, *args = node
        if kind == "input":
            args = [1 if args[0] else 0]
        lines.append(f"{i} {kind} " + " ".join(str(a) for a in args))
    return ("\n".join(lines) + "\n").encode("ascii")


def random_circuit_oracle(size: int, rng: random.Random, weights=(1, 2, 2)) -> tuple:
    """Node tuples drawn with rng.choices and rng.randrange."""
    n_inputs = 1 + rng.randrange(min(4, size - 1))
    nodes = [("input", rng.random() < 0.5) for _ in range(n_inputs)]
    for _ in range(size - n_inputs - 1):
        prev = len(nodes)
        op = rng.choices(["not", "and", "or"], weights=weights)[0]
        if op == "not":
            nodes.append(("not", 1 + rng.randrange(prev)))
        else:
            nodes.append((op, 1 + rng.randrange(prev), 1 + rng.randrange(prev)))
    nodes.append(("output", 1 + rng.randrange(len(nodes))))
    return tuple(nodes)
