"""Boolean circuit representation, parsing, and evaluation.

A circuit is a dense sequence of nodes with ids 1..n, one per line in the
text form:

    <id> input <0|1>
    <id> not <ref>
    <id> and <ref> <ref>
    <id> or <ref> <ref>
    <id> output <ref>

Ids must equal the line number. References may point forward as long as
the wiring stays acyclic; exactly one output node is required and nothing
may reference it.

Checks and evaluation read three columns, index i for node i: a kind
code, the first argument of and/or and the last argument of every kind
but input. A missing argument is 0, which names node 0: index 0 holds a
false input that no text or Circuit lists. An input's bit is part of its
code. Text written as circuit_to_bytes writes it is turned into columns a
chunk at a time, with no per-line objects; any other text takes a line
loop that names its first bad line. validate_circuit turns a Circuit into
the same columns with its per-node checks. The structure check that
follows picks the evaluation order: id order when every reference points
backward, else the topological order it builds to rule out a cycle.
Evaluation is one walk in that order up to the output node.
"""
from __future__ import annotations

import json
import random
from array import array
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice

from ..encoding import Instance
from ..errors import (
    ArityError,
    CyclicCircuit,
    DanglingRef,
    MalformedCircuit,
)

# Node tuples: ("input", bit), ("not", a), ("and", a, b), ("or", a, b),
# ("output", a). Refs are 1-based node ids.
Node = tuple

_ARITY = {"input": 1, "not": 1, "and": 2, "or": 2, "output": 1}

# The kind of each code, and the codes: an input's bit is part of its
# code. Codes count from the end of _KINDS, so _KINDS[code] is the kind
# and every code is negative, which _chunk_columns relies on.
_KINDS = ("input", "input", "not", "output", "and", "or")
IN0, IN1, NOT, OUTPUT, AND, OR = range(-len(_KINDS), 0)
_CODE = {"not": NOT, "output": OUTPUT, "and": AND, "or": OR}


@dataclass(frozen=True)
class Circuit:
    nodes: tuple[Node, ...]


# Line templates by node tuple length: the id goes in first, then the
# node's fields; %d writes an input's bool as 0 or 1.
_LINE_TEMPLATE = {2: "%d %%s %%d\n", 3: "%d %%s %%d %%d\n"}


def circuit_to_bytes(c: Circuit) -> Instance:
    nodes = c.nodes
    fmt = "".join(map(_LINE_TEMPLATE.__getitem__, map(len, nodes))) % tuple(
        range(1, len(nodes) + 1))
    return (fmt % tuple(chain.from_iterable(nodes))).encode("ascii")


def parse_circuit(data: Instance) -> Circuit:
    kinds, left, right = _parse(data)[0]
    return Circuit(tuple([
        (_KINDS[k], a, b) if k >= AND else (_KINDS[k], b) if k >= NOT
        else ("input", k == IN1)
        for k, a, b in islice(zip(kinds, left, right), 1, None)]))


def _parse(data: Instance) -> tuple[tuple, list[int] | None]:
    """The columns of a circuit text and its evaluation order (see
    _check_structure)."""
    cols = _chunk_columns(data)
    if cols is None:
        cols = _line_columns(data)
    return cols, _check_structure(cols, _scan_refs(cols))


# Bytes of lines _chunk_columns converts at a time; it keeps the
# transient copies and int lists small next to the columns. Chunks of
# 64 KiB were no faster and left perfbench suite's peak RSS 1.6 MB higher.
_CHUNK = 1 << 14

# Each kind word as it stands in a canonical line, and what
# _chunk_columns puts in its place: the code and a 0 for each argument
# the kind lacks, so that every line turns into four integers.
_CODED_WORDS = (
    (b" input 0\n", b" %d 0 0\n" % IN0),
    (b" input 1\n", b" %d 0 0\n" % IN1),
    (b" not ", b" %d 0 " % NOT),
    (b" output ", b" %d 0 " % OUTPUT),
    (b" and ", b" %d " % AND),
    (b" or ", b" %d " % OR),
)
# The argument columns' entry for node 0, copied to start each column.
_NODE_0 = array("q", [0])
# Every byte canonical text can hold: separators, digits and the
# letters of the kind words.
_CANONICAL_BYTES = b" \n0123456789adinoprtu"
_TO_COMMAS = bytes.maketrans(b" \n", b",,")
# json's C scanner reads a list of plain decimals faster than int()
# takes the split tokens one by one.
_read_json = json.JSONDecoder().raw_decode


def _chunk_columns(data: bytes) -> tuple[list, array, array] | None:
    """The columns of data when every line is "id kind args\\n" as
    circuit_to_bytes writes it, ids dense from 1, else None. The lines
    are converted and checked a chunk at a time, so of all the lines
    only the columns are held."""
    if data and not data.endswith(b"\n"):  # the last line has no newline
        return None
    kinds, left, right = [IN0], _NODE_0[:], _NODE_0[:]
    start, end = 0, len(data)
    while start < end:
        stop = data.find(b"\n", start + _CHUNK) + 1 or end
        chunk = data[start:stop]
        # Only bytes canonical text holds: so no minus sign, and every one
        # below is a code's.
        if chunk.translate(None, _CANONICAL_BYTES):
            return None
        for word, coded in _CODED_WORDS:
            chunk = chunk.replace(word, coded)
        # Every line must now be four tokens with single spaces, each a
        # plain decimal as json reads one, with a code, negative, in the
        # field after the id and in no other: each line had one kind
        # word, there, and was written as circuit_to_bytes writes it.
        k = chunk.count(b"\n")
        if chunk.translate(None, b"0123456789") != b" -  \n" * k:
            return None
        try:
            ints = _read_json("[%s]" % chunk.translate(_TO_COMMAS)[:-1].decode())[0]
        except ValueError:
            return None
        if ints[0::4] != list(range(len(kinds), len(kinds) + k)):
            return None
        try:
            left.fromlist(ints[2::4])
            right.fromlist(ints[3::4])
        except OverflowError:  # a ref past int64, which the line loop names
            return None
        kinds += ints[1::4]
        start = stop
    return kinds, left, right


def _line_columns(data: bytes) -> tuple[list, list, list]:
    """The columns of a circuit text that _chunk_columns turned down:
    every line is split and converted, and the first line that is not
    "id kind args" raises."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedCircuit("circuit text is not ASCII") from None
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    kinds, left, right = [IN0], [0], [0]
    add_kind, add_left, add_right = kinds.append, left.append, right.append
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
        arity = _ARITY.get(kind)
        if arity is None:
            raise MalformedCircuit(f"line {lineno}: unknown kind {kind!r}")
        if len(parts) - 2 != arity:
            raise ArityError(
                f"line {lineno}: {kind} takes {arity} argument(s), got {len(parts) - 2}"
            )
        try:
            args = tuple(map(int, parts[2:]))
        except ValueError:
            raise MalformedCircuit(f"line {lineno}: non-integer argument") from None
        if kind == "input":
            if args[0] not in (0, 1):
                raise MalformedCircuit(f"line {lineno}: input must be 0 or 1")
            add_kind(IN1 if args[0] else IN0)
            add_left(0)
            add_right(0)
        else:
            add_kind(_CODE[kind])
            add_left(args[0] if arity == 2 else 0)
            add_right(args[-1])
    return kinds, left, right


def validate_circuit(c: Circuit) -> None:
    """Structural checks: arities, ref ranges, one unreferenced output, acyclicity."""
    _validate(c)


def _validate(c: Circuit) -> tuple[tuple, list[int] | None]:
    """validate_circuit's checks; returns the columns and the evaluation
    order."""
    n = len(c.nodes)
    kinds, left, right = [IN0], [0], [0]
    add_kind, add_left, add_right = kinds.append, left.append, right.append
    backward = True  # every ref names an earlier node: acyclic for sure
    for i, node in enumerate(c.nodes, 1):
        kind = node[0]
        arity = _ARITY.get(kind)
        if arity is None:
            raise MalformedCircuit(f"node {i}: unknown kind {kind!r}")
        if len(node) - 1 != arity:
            raise ArityError(
                f"node {i}: {kind} takes {arity} argument(s), got {len(node) - 1}"
            )
        if kind == "input":
            add_kind(IN1 if node[1] else IN0)
            add_left(0)
            add_right(0)
            continue
        if arity == 2:
            _, a, b = node
            if not 0 < a < i:
                backward = False
                if not 1 <= a <= n:
                    raise DanglingRef(f"node {i}: reference to missing node {a}")
        else:
            _, b = node
            a = 0
        if not 0 < b < i:
            backward = False
            if not 1 <= b <= n:
                raise DanglingRef(f"node {i}: reference to missing node {b}")
        add_kind(_CODE[kind])
        add_left(a)
        add_right(b)
    cols = (kinds, left, right)
    return cols, _check_structure(cols, backward)


def _scan_refs(cols) -> bool:
    """Whether every ref of the columns names an earlier node; raises
    for the first ref, in node order, outside 1..n."""
    kinds, left, right = cols
    n = len(kinds) - 1
    backward = True
    for i, kind, a, b in zip(count(), kinds, left, right):
        if kind < NOT:  # an input, node 0 too, reads no node
            continue
        if kind >= AND and not 0 < a < i:
            backward = False
            if not 1 <= a <= n:
                raise DanglingRef(f"node {i}: reference to missing node {a}")
        if not 0 < b < i:
            backward = False
            if not 1 <= b <= n:
                raise DanglingRef(f"node {i}: reference to missing node {b}")
    return backward


def _check_structure(cols, backward: bool) -> list[int] | None:
    """The checks after a per-node pass that found every ref in range
    and whether each names an earlier node: one output, nothing reading
    it, no cycle. Returns the evaluation order: None for id order, which
    is topological when every ref names an earlier node, else a
    topological order."""
    kinds, left, right = cols
    n = len(kinds) - 1
    if n == 0:
        raise MalformedCircuit("circuit has no nodes")
    outputs = kinds.count(OUTPUT)
    if outputs != 1:
        raise MalformedCircuit(f"need exactly one output node, found {outputs}")
    out = kinds.index(OUTPUT)
    # Backward refs cannot reach a last-node output or close a cycle.
    if backward and out == n:
        return None
    if out in left or out in right:
        first = min(col.index(out) for col in (left, right) if out in col)
        raise MalformedCircuit(f"node {first}: references the output node")
    return None if backward else _topo_order(cols)  # raises CyclicCircuit


def _topo_order(cols) -> list[int]:
    """Ids in an order that puts every node after the nodes it reads:
    the order in which a depth-first search over the refs finishes
    them."""
    _, left, right = cols
    # 0 unseen, 1 on the search path, 2 finished; node 0 reads nothing.
    state = bytearray(len(left))
    state[0] = 2
    order = []
    stack = []
    for root in range(1, len(left)):
        if state[root]:
            continue
        stack.append(root)
        while stack:
            i = stack[-1]
            if state[i] != 2:
                a, b = left[i], right[i]
                if state[a] != 2 or state[b] != 2:
                    # Unfinished refs of a node on the path close a cycle.
                    if state[a] == 1 or state[b] == 1:
                        raise CyclicCircuit("wiring contains a cycle")
                    state[i] = 1
                    if not state[a]:
                        stack.append(a)
                    if not state[b]:
                        stack.append(b)
                    continue
                state[i] = 2
                order.append(i)
            stack.pop()
    return order


def cvp_eval(c: Circuit) -> bool:
    """Value of the designated output under the baked-in input assignment."""
    return _walk(*_validate(c))


def _walk(cols, order: list[int] | None) -> bool:
    """Value of checked columns: evaluate the nodes in id order, or in
    `order` when given, and stop at the output. Either order sets every
    operand before it is read."""
    kinds, left, right = cols
    values = [False] * len(kinds)
    steps = (zip(count(), kinds, left, right) if order is None
             else zip(order, map(kinds.__getitem__, order), map(left.__getitem__, order),
                      map(right.__getitem__, order)))
    for i, kind, a, b in steps:
        if kind == AND:
            values[i] = values[a] and values[b]
        elif kind == OR:
            values[i] = values[a] or values[b]
        elif kind == NOT:
            values[i] = not values[b]
        elif kind == IN1:
            values[i] = True
        elif kind == OUTPUT:
            return values[b]


def cvp_member(x: Instance) -> bool:
    """Total oracle over raw bytes: well-formed and evaluating to true."""
    try:
        return _walk(*_parse(x))
    except MalformedCircuit:
        return False


def negate_output(c: Circuit) -> Circuit:
    """Rewire the output through one extra negation, flipping its value.

    The old output node turns into the negation in place, so every other
    reference survives unchanged; a fresh output node is appended.
    """
    validate_circuit(c)
    out_idx = next(i for i, node in enumerate(c.nodes, 1) if node[0] == "output")
    nodes = list(c.nodes)
    nodes[out_idx - 1] = ("not", nodes[out_idx - 1][1])
    nodes.append(("output", out_idx))
    return Circuit(tuple(nodes))


def double_negate_output(c: Circuit) -> Circuit:
    """Rewire the output through two stacked negations; value is unchanged."""
    return negate_output(negate_output(c))


def random_circuit(
    size: int,
    rng: random.Random,
    weights: tuple[int, int, int] = (1, 2, 2),
) -> Circuit:
    """A valid random circuit with exactly `size` nodes (inputs, gates, output)."""
    if size < 2:
        raise ValueError("need at least one input and the output")
    n_inputs = 1 + rng.randrange(min(4, size - 1))
    n_gates = size - n_inputs - 1
    nodes: list[Node] = [("input", rng.random() < 0.5) for _ in range(n_inputs)]
    ops = ["not", "and", "or"]
    if n_gates:
        # Inline forms of rng.choices(ops, weights) and rng.randrange(prev)
        # that draw the same numbers: bisect over the running weight sums,
        # and getrandbits(prev.bit_length()) until below prev. The k=0
        # call rejects bad weights as the first draw would, drawing nothing.
        rng.choices(ops, weights, k=0)
        cum = list(accumulate(weights))
        total = cum[-1] + 0.0
        random_ = rng.random
        getrandbits = rng.getrandbits
        append = nodes.append
        for prev in range(n_inputs, n_inputs + n_gates):
            op = ops[bisect(cum, random_() * total, 0, 2)]
            bits = prev.bit_length()
            a = getrandbits(bits)
            while a >= prev:
                a = getrandbits(bits)
            if op == "not":
                append(("not", a + 1))
                continue
            b = getrandbits(bits)
            while b >= prev:
                b = getrandbits(bits)
            append((op, a + 1, b + 1))
    nodes.append(("output", 1 + rng.randrange(len(nodes))))
    return Circuit(tuple(nodes))


def enumerate_circuits(max_gates: int = 3, max_inputs: int = 2):
    """Every circuit with at most max_gates gates, backward wiring only.

    Inputs range over 1..max_inputs with all assignments; each gate may
    reference any earlier node; the output may reference any node. The
    count grows steeply with either cap.
    """
    def gate_choices(prev: int):
        for a in range(1, prev + 1):
            yield ("not", a)
        for a in range(1, prev + 1):
            for b in range(1, prev + 1):
                yield ("and", a, b)
                yield ("or", a, b)

    def build(nodes: list[Node], gates_left: int):
        prev = len(nodes)
        for out_ref in range(1, prev + 1):
            yield Circuit(tuple(nodes) + (("output", out_ref),))
        if gates_left == 0:
            return
        for gate in gate_choices(prev):
            nodes.append(gate)
            yield from build(nodes, gates_left - 1)
            nodes.pop()

    for n_inputs in range(1, max_inputs + 1):
        for assignment in range(1 << n_inputs):
            inputs: list[Node] = [
                ("input", bool(assignment >> i & 1)) for i in range(n_inputs)
            ]
            yield from build(inputs, max_gates)
