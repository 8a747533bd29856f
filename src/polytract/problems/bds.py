"""Stack-driven breadth-depth traversal of numbered graphs.

The traversal starts at the node with the smallest number and records it.
The current node then has all of its unvisited neighbors recorded in
ascending number order and pushed on a stack in the reverse of that
order, so the smallest-numbered child sits on top. The next current node
is popped from the stack; it was already recorded when pushed and is not
recorded again, only expanded. When the stack runs dry with unvisited
nodes remaining, the traversal restarts at the smallest-numbered
unvisited node. The start node of each restart is recorded immediately
and never pushed.

The decision problem asks whether node u is recorded strictly before
node v.

Text form of an instance, all ASCII digits, spaces, and newlines:

    n m\n
    number(1) ... number(n)\n      the i-th entry numbers node i
    u v\n                          one line per edge, m lines
    u v                            trailing visit-order query, no newline

The header makes the graph block self-delimiting, so the query can ride
directly behind it with no separator byte.

A graph is held in one form: n, the numbering and an int64 column of the
edge keys u * (n + 1) + v, u < v, in ascending order, which is the order
of the edge lines graph_to_bytes writes. The edges view of a
NumberedGraph derives the (u, v) pairs. Membership decides from the same
column as parsed, without building a NumberedGraph.

A block is read from its header's counts. The numbering line, and the
edge lines 64 KiB at a time, are first read as text graph_to_bytes
could write: one translate checks that each line is decimals with
single spaces, and json's C scanner reads the numbers (see scan.py).
Each chunk's edges are then checked and keyed at once, so of all the
lines only their keys are held. Any other text, such as a leading zero,
a tab or a CRLF line end, goes to a line loop that names its first bad
line, and the checks of make_graph name the first bad edge.
"""
from __future__ import annotations

import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, islice, permutations, repeat
from operator import eq

from ..encoding import Instance
from ..errors import MalformedGraph, SameNode, UnknownNode
from .scan import read_ints


@dataclass(frozen=True)
class NumberedGraph:
    """Undirected graph on nodes 1..n with a bijective numbering.

    numbering[i] is the number of node i+1; keys is the ascending int64
    column of edge keys described above, so no self-loop and no edge
    twice, and edges derives its (u, v) pairs, u < v. Use make_graph to
    get validation.
    """

    n: int
    numbering: tuple[int, ...]
    keys: array

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pairs(self.n, self.keys))


def _pairs(n: int, keys) -> Iterator[tuple[int, int]]:
    """The (u, v) pair of each key, in the keys' order."""
    return map(divmod, keys, repeat(n + 1))


def make_graph(n: int, numbering, edges) -> NumberedGraph:
    numbering = _bijection(n, numbering)
    return NumberedGraph(n, numbering, _checked_keys(n, list(edges)))


def _bijection(n: int, numbering) -> tuple[int, ...]:
    if n < 1:
        raise MalformedGraph("graph needs at least one node")
    numbering = tuple(numbering)
    if len(numbering) != n or set(numbering) != set(range(1, n + 1)):
        raise MalformedGraph("numbering is not a bijection onto 1..n")
    return numbering


def _checked_keys(n: int, edges: list) -> array:
    """The key column of edges, after whole-set checks; edges that fail
    one are walked one by one so the error names the first bad edge in
    input order."""
    keys = _valid_keys(n, [end for u, v in edges for end in (u, v)])
    column = None if keys is None else _ascending(keys)
    if column is None:
        _reject_edges(n, edges)
    return column


def _valid_keys(n: int, ends: list[int]) -> list[int] | None:
    """The keys u * (n + 1) + v, u < v, in input order, of the edges
    whose endpoints ends lists flat (u, v, u, v, ...), or None if an
    edge is a self-loop or leaves 1..n."""
    if ends and (min(ends) < 1 or max(ends) > n):
        return None
    stride = n + 1
    pairs = iter(ends)
    # A self-loop gets key 0, which no edge in range has.
    keys = [u * stride + v if u < v else v * stride + u if u > v else 0
            for u, v in zip(pairs, pairs)]
    return None if 0 in keys else keys


def _ascending(keys: list[int]) -> array | None:
    """keys, sorted in place, as an int64 column, or None if an edge
    repeats: distinct in-range edges have distinct keys."""
    keys.sort()
    if any(map(eq, keys, islice(keys, 1, None))):
        return None
    return array("q", keys)


def _reject_edges(n: int, edges) -> None:
    """Raise for the first edge, in input order, that is a self-loop,
    leaves 1..n or repeats an earlier one."""
    seen = set()
    for u, v in edges:
        if u == v:
            raise MalformedGraph(f"self-loop at node {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise MalformedGraph(f"edge ({u}, {v}) leaves the node range")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise MalformedGraph(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)


def graph_to_bytes(g: NumberedGraph) -> bytes:
    m = len(g.keys)
    return (f"{g.n} {m}\n" + " ".join(map(str, g.numbering)) + "\n"
            + "%d %d\n" * m % tuple(chain.from_iterable(_pairs(g.n, g.keys)))
            ).encode("ascii")


def _int_fields(line: bytes, lineno: int, want: int) -> list[int]:
    parts = line.split()
    if len(parts) != want:
        raise MalformedGraph(f"line {lineno}: expected {want} fields, got {len(parts)}")
    try:
        return list(map(int, parts))
    except ValueError:
        raise MalformedGraph(f"line {lineno}: non-integer field") from None


def split_block_tail(data: bytes) -> tuple[bytes, bytes]:
    """Slice a graph block off the front of data, byte-exactly.

    The header says how many newline-terminated lines the block spans, so
    the split point is determined without reserializing anything and the
    tail comes back raw.
    """
    _, _, _, end = block_bounds(data)
    return data[:end], data[end:]


def block_bounds(data: bytes) -> tuple[int, int, int, int]:
    """Header counts n, m, the offset of the first edge line and the end
    of the block's m + 2 lines at the front of data; MalformedGraph if
    data holds no such block."""
    first_nl = data.find(b"\n")
    if first_nl < 0:
        raise MalformedGraph("line 1: missing newline after header")
    n, m = _int_fields(data[:first_nl], 1, 2)
    if n < 1:
        raise MalformedGraph("line 1: node count must be positive")
    if m < 0:
        raise MalformedGraph("line 1: negative edge count")
    start = data.find(b"\n", first_nl + 1) + 1
    if not start:
        raise MalformedGraph("line 2: truncated block")
    later = data.count(b"\n", start)
    if later < m:
        raise MalformedGraph(f"line {later + 3}: truncated block")
    if later == m:  # the tail holds no newline, so no split is needed
        return n, m, start, data.rfind(b"\n") + 1
    return n, m, start, len(data) - len(data.split(b"\n", m + 2)[-1])


def _parse_block(data: bytes, bounds=None) -> tuple[int, tuple[int, ...], array, bytes]:
    """n, numbering, the key column of the edge lines and the raw tail of
    the graph block at the front of data, with every check of make_graph
    made. bounds, if given, is block_bounds(data), already read."""
    n, m, start, end = bounds or block_bounds(data)
    numbering = _numbering_fields(data[data.find(b"\n") + 1:start], n)
    keys = _edge_columns(n, data, start, end)
    # Anything else takes the line loop, which finds the first bad line
    # and lets the checks of make_graph name the first bad edge.
    edges = None if keys is not None else _edge_lines(data[start:end], m)
    numbering = _bijection(n, numbering)
    if keys is None:
        keys = _checked_keys(n, edges)
    return n, numbering, keys, data[end:]


def _numbering_fields(line: bytes, n: int) -> list[int]:
    """The n integers of the numbering line, its newline included, or an
    error from _int_fields naming what is wrong with it."""
    # Only a line with n - 1 spaces can be n fields, which also bounds
    # the skeleton by the line's own length.
    if line.count(b" ") == n - 1:
        ints = read_ints(line, b" " * (n - 1) + b"\n")
        if ints is not None:
            return ints
    return _int_fields(line[:-1], 2, n)


def _edge_lines(region: bytes, m: int) -> list[tuple[int, int]]:
    """The (u, v) pairs of m edge lines, or an error naming the first
    line that is not two integer fields."""
    edges = []
    append = edges.append
    # _int_fields(line, lineno, 2) unrolled: this loop runs once per edge.
    for lineno, line in enumerate(region.split(b"\n")[:m], 3):
        parts = line.split()
        if len(parts) != 2:
            raise MalformedGraph(f"line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise MalformedGraph(f"line {lineno}: non-integer field") from None
    return edges


# Bytes of edge lines _edge_columns converts at a time; it keeps the
# transient copies and int lists small next to the columns. 16 KiB, the
# cvp reader's size, parses no faster, and switching sizes moved
# in-process run_suite peak RSS at seed 42 by a 2 MB heap-layout step
# whose sign turned with unrelated code, so measure peak-RSS pairs at
# equal path lengths before changing it.
_CHUNK = 1 << 16
# An edge line with its digits deleted.
_EDGE_LINE = b" \n"


def _edge_columns(n: int, data: bytes, start: int, end: int) -> array | None:
    """The key column of the edge lines in data[start:end] when every
    line is written "u v\\n" in plain decimal and no edge is a self-loop,
    leaves 1..n or repeats, else None. The lines are converted and checked
    a chunk at a time, so of all the lines only their keys are held."""
    keys: list[int] = []
    while start < end:
        stop = data.find(b"\n", min(start + _CHUNK, end - 1), end) + 1 or end
        chunk = data[start:stop]
        ints = read_ints(chunk, _EDGE_LINE * chunk.count(b"\n"))
        chunk_keys = None if ints is None else _valid_keys(n, ints)
        if chunk_keys is None:
            return None
        keys += chunk_keys
        start = stop
    return _ascending(keys)


def parse_graph_block(data: bytes) -> tuple[NumberedGraph, bytes]:
    """Parse a graph block off the front of data; return it and the rest."""
    n, numbering, keys, tail = _parse_block(data)
    return NumberedGraph(n, numbering, keys), tail


def parse_graph(data: bytes) -> NumberedGraph:
    g, rest = parse_graph_block(data)
    if rest:
        raise MalformedGraph("trailing bytes after edge lines")
    return g


def instance_bytes(g: NumberedGraph, u: int, v: int) -> Instance:
    """Graph block with the query pair riding directly behind it."""
    return graph_to_bytes(g) + f"{u} {v}".encode("ascii")


def parse_instance(data: Instance) -> tuple[NumberedGraph, int, int]:
    g, rest = parse_graph_block(data)
    return (g, *_query(rest))


def _query(tail: bytes) -> tuple[int, int]:
    fields = tail.split()
    if len(fields) != 2:
        raise MalformedGraph("query tail must be exactly two node ids")
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise MalformedGraph("query tail must be integers") from None


def _recorded(n: int, numbering, keys) -> Iterator[list[int]]:
    """Numbers of the breadth-depth traversal described above, in the
    batches it records them: a restart node alone, then each expanded
    node's unvisited neighbors in ascending order."""
    # The traversal runs on numbers, where "smallest" is integer order.
    number = (0, *numbering)
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    # Decoded in the loop: _pairs' divmod allocates a tuple per edge.
    stride = n + 1
    for k in keys:
        a, b = number[k // stride], number[k % stride]
        nbrs[a].append(b)
        nbrs[b].append(a)
    visited = [False] * (n + 1)
    stack: list[int] = []
    restart = 1
    left = n
    while left:
        if stack:
            cur = stack.pop()
        else:
            while visited[restart]:
                restart += 1
            cur = restart
            visited[cur] = True
            left -= 1
            yield [cur]
        children = [w for w in nbrs[cur] if not visited[w]]
        if children:
            # Sorted here, not up front: _decide mostly stops long before
            # every node is expanded.
            children.sort()
            for w in children:
                visited[w] = True
            left -= len(children)
            yield children
            stack.extend(reversed(children))


def bds_order(g: NumberedGraph) -> tuple[int, ...]:
    """Visit order of the breadth-depth traversal described above."""
    node_of = sorted(range(g.n + 1), key=((0,) + g.numbering).__getitem__)
    recorded = _recorded(g.n, g.numbering, g.keys)
    return tuple(map(node_of.__getitem__, chain.from_iterable(recorded)))


def bds_decide(g: NumberedGraph, u: int, v: int) -> bool:
    """True iff u is recorded strictly before v."""
    return _decide(g.n, g.numbering, g.keys, u, v)


def _decide(n: int, numbering, keys, u: int, v: int) -> bool:
    if not (1 <= u <= n):
        raise UnknownNode(f"node {u} is not in the graph")
    if not (1 <= v <= n):
        raise UnknownNode(f"node {v} is not in the graph")
    if u == v:
        raise SameNode(f"query names node {u} twice")
    a, b = numbering[u - 1], numbering[v - 1]
    # Every node is recorded, so some batch holds a or b. The first such
    # batch decides; one holding both recorded them in ascending order.
    for batch in _recorded(n, numbering, keys):
        if a in batch:
            return b not in batch or a < b
        if b in batch:
            return False


def bds_member(x: Instance) -> bool:
    """Total membership oracle over raw bytes; malformed input is out."""
    return block_member(x, None)


def block_member(block: bytes, query: bytes | None, bounds=None) -> bool:
    """Whether the graph block at the front of block records the query's
    first node before its second, decided from the key column without a
    NumberedGraph. The query is the block's own tail when None, else
    block must hold the graph block alone. False on malformed input.
    bounds, if given, is block_bounds(block), so a caller that split
    block at its end does not read the header again."""
    try:
        n, numbering, keys, tail = _parse_block(block, bounds)
        if query is None:
            query = tail
        elif tail:
            return False
        return _decide(n, numbering, keys, *_query(query))
    except (MalformedGraph, SameNode, UnknownNode):
        return False


def swap_query(x: Instance) -> Instance:
    """Swap the trailing query pair; flips membership of valid instances."""
    g, u, v = parse_instance(x)
    return instance_bytes(g, v, u)


def random_graph(n: int, rng: random.Random, edge_prob: float = 0.3) -> NumberedGraph:
    numbering = _shuffled_numbering(n, rng)
    edges = [
        (u, v) for u, v in combinations(range(1, n + 1), 2)
        if rng.random() < edge_prob
    ]
    return make_graph(n, numbering, edges)


def random_instance(n: int, rng: random.Random, edge_prob: float = 0.3) -> Instance:
    g = random_graph(n, rng, edge_prob)
    u, v = rng.sample(range(1, n + 1), 2)
    return instance_bytes(g, u, v)


def _shuffled_numbering(n: int, rng: random.Random) -> list[int]:
    """1..n after rng.shuffle, with its draws inlined: for i from n - 1
    down to 1 it draws getrandbits((i + 1).bit_length()) until at most i
    and swaps, so the stream stays the same. The i whose i + 1 share a
    bit length run as one band."""
    numbering = list(range(1, n + 1))
    getrandbits = rng.getrandbits
    top = n - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = (1 << (bits - 1)) - 1  # least i with i + 1 of this length
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            numbering[i], numbering[j] = numbering[j], numbering[i]
        top = low - 1
    return numbering


def random_sparse_graph(n: int, rng: random.Random, avg_degree: float = 4.0) -> NumberedGraph:
    """Random graph drawn edge by edge; usable for large n where the
    quadratic edge sweep of random_graph would be wasteful."""
    numbering = _shuffled_numbering(n, rng)
    target = min(int(avg_degree * n / 2), n * (n - 1) // 2)
    stride = n + 1
    keys = set()
    if n <= _SAMPLE_POOL_MAX:
        while len(keys) < target:
            u, v = rng.sample(range(1, n + 1), 2)
            keys.add(u * stride + v if u < v else v * stride + u)
    else:
        # rng.sample(range(1, n + 1), 2) inlined: above the pool size it
        # draws getrandbits(n.bit_length()) until below n, then again
        # until below n and different, so the stream stays the same.
        bits = n.bit_length()
        getrandbits = rng.getrandbits
        add_key = keys.add
        offset = stride + 1  # key of (i + 1, j + 1) is i * stride + j + offset
        while len(keys) < target:
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            j = getrandbits(bits)
            while j >= n or j == i:
                j = getrandbits(bits)
            add_key(i * stride + j + offset if i < j else j * stride + i + offset)
    return NumberedGraph(n, tuple(numbering), array("q", sorted(keys)))


# Largest population random.Random.sample(population, 2) draws from a
# copied pool rather than by rejection.
_SAMPLE_POOL_MAX = 21


def random_sparse_instance(n: int, rng: random.Random) -> Instance:
    """instance_bytes of random_sparse_graph and a random query."""
    g = random_sparse_graph(n, rng)
    u, v = rng.sample(range(1, n + 1), 2)
    return instance_bytes(g, u, v)


def enumerate_graphs(n: int) -> Iterator[NumberedGraph]:
    """All numberings crossed with all edge subsets for a fixed n."""
    stride = n + 1
    slots = [u * stride + v for u, v in combinations(range(1, n + 1), 2)]  # ascending
    for numbering in permutations(range(1, n + 1)):
        for mask in range(1 << len(slots)):
            keys = array("q", [k for i, k in enumerate(slots) if mask >> i & 1])
            yield NumberedGraph(n, numbering, keys)


def enumerate_instances(max_n: int) -> Iterator[Instance]:
    """Every graph up to max_n nodes with every ordered query pair."""
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            block = graph_to_bytes(g)
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    if u != v:
                        yield block + f"{u} {v}".encode("ascii")
