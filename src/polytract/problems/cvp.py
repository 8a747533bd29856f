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
may reference it. The structure check that ends parsing and validation
also picks the evaluation order: id order when every reference points
backward, else the topological order it builds to rule out a cycle.
Evaluation is one walk in that order up to the output node.
"""
from __future__ import annotations

import random
from bisect import bisect
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

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


@dataclass(frozen=True)
class Circuit:
    nodes: tuple[Node, ...]


def circuit_to_bytes(c: Circuit) -> Instance:
    lines = []
    append = lines.append
    for i, node in enumerate(c.nodes, 1):
        kind = node[0]
        if kind == "input":
            append(f"{i} input {1 if node[1] else 0}\n")
        elif len(node) == 3:
            append(f"{i} {kind} {node[1]} {node[2]}\n")
        else:
            append(f"{i} {kind} " + " ".join(map(str, node[1:])) + "\n")
    return "".join(lines).encode("ascii")


def parse_circuit(data: Instance) -> Circuit:
    return _parse(data)[0]


def _parse(data: Instance) -> tuple[Circuit, list[int] | None]:
    """The circuit and its evaluation order (see _check_structure)."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedCircuit("circuit text is not ASCII") from None
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    # One pass parses every line and gathers what validate_circuit would
    # check; its errors are raised after the pass, in its order.
    n = len(raw_lines)
    nodes: list[Node] = []
    append = nodes.append
    outputs = []
    dangling = None
    backward = True  # every ref names an earlier node: acyclic for sure
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
            append(("input", bool(args[0])))
            continue
        append((kind, *args))
        if kind == "output":
            outputs.append(lineno)
        for ref in args:
            if not 0 < ref < lineno:
                backward = False
                if dangling is None and not 1 <= ref <= n:
                    dangling = f"node {lineno}: reference to missing node {ref}"
    if dangling is not None:
        raise DanglingRef(dangling)
    circuit = Circuit(tuple(nodes))
    return circuit, _check_structure(circuit, outputs, backward)


def _refs(node: Node) -> tuple[int, ...]:
    kind = node[0]
    return () if kind == "input" else tuple(node[1:])


def validate_circuit(c: Circuit) -> None:
    """Structural checks: arities, ref ranges, one unreferenced output, acyclicity."""
    _validate(c)


def _validate(c: Circuit) -> list[int] | None:
    """validate_circuit's checks; returns the evaluation order."""
    n = len(c.nodes)
    outputs = []
    backward = True
    for i, node in enumerate(c.nodes, 1):
        kind = node[0]
        arity = _ARITY.get(kind)
        if arity is None:
            raise MalformedCircuit(f"node {i}: unknown kind {kind!r}")
        if len(node) - 1 != arity:
            raise ArityError(
                f"node {i}: {kind} takes {arity} argument(s), got {len(node) - 1}"
            )
        if kind == "output":
            outputs.append(i)
        for ref in _refs(node):
            if not 0 < ref < i:
                backward = False
                if not 1 <= ref <= n:
                    raise DanglingRef(f"node {i}: reference to missing node {ref}")
    return _check_structure(c, outputs, backward)


def _check_structure(c: Circuit, outputs: list[int], backward: bool) -> list[int] | None:
    """The checks after a per-node pass that found the output ids and
    whether every ref names an earlier node: one output, nothing reading
    it, no cycle. Returns the evaluation order: None for id order, which
    is topological when every ref names an earlier node, else a
    topological order."""
    n = len(c.nodes)
    if n == 0:
        raise MalformedCircuit("circuit has no nodes")
    if len(outputs) != 1:
        raise MalformedCircuit(f"need exactly one output node, found {len(outputs)}")
    out = outputs[0]
    # Backward refs cannot reach a last-node output or close a cycle.
    if backward and out == n:
        return None
    for i, node in enumerate(c.nodes, 1):
        if out in _refs(node):
            raise MalformedCircuit(f"node {i}: references the output node")
    return None if backward else _topo_order(c)  # raises CyclicCircuit


def _topo_order(c: Circuit) -> list[int]:
    n = len(c.nodes)
    dependents: list[list[int]] = [[] for _ in range(n + 1)]
    indegree = [0] * (n + 1)
    for i, node in enumerate(c.nodes, 1):
        for ref in _refs(node):
            dependents[ref].append(i)
            indegree[i] += 1
    ready = deque(i for i in range(1, n + 1) if indegree[i] == 0)
    order = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for j in dependents[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if len(order) != n:
        raise CyclicCircuit("wiring contains a cycle")
    return order


def cvp_eval(c: Circuit) -> bool:
    """Value of the designated output under the baked-in input assignment."""
    return _walk(c, _validate(c))


def _walk(c: Circuit, order: list[int] | None) -> bool:
    """Value of a checked circuit: evaluate its nodes in id order, or in
    `order` when given, and stop at the output. Either order sets every
    operand before it is read."""
    nodes = c.nodes
    values: list = [None] * (len(nodes) + 1)
    steps = (enumerate(nodes, 1) if order is None
             else ((i, nodes[i - 1]) for i in order))
    for i, node in steps:
        kind = node[0]
        if kind == "input":
            values[i] = node[1]
        elif kind == "not":
            values[i] = not values[node[1]]
        elif kind == "and":
            values[i] = values[node[1]] and values[node[2]]
        elif kind == "or":
            values[i] = values[node[1]] or values[node[2]]
        else:
            return values[node[1]]


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
