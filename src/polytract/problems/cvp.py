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
may reference it. Evaluation walks the nodes in topological order and
returns the output node's value.
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
    if n == 0:
        raise MalformedCircuit("circuit has no nodes")
    if dangling is not None:
        raise DanglingRef(dangling)
    if len(outputs) != 1:
        raise MalformedCircuit(f"need exactly one output node, found {len(outputs)}")
    circuit = Circuit(tuple(nodes))
    # Backward refs cannot reach a last-line output or close a cycle.
    if not (backward and outputs[0] == n):
        _check_wiring(circuit, outputs[0])
    return circuit


def _refs(node: Node) -> tuple[int, ...]:
    kind = node[0]
    return () if kind == "input" else tuple(node[1:])


def validate_circuit(c: Circuit) -> None:
    """Structural checks: arities, ref ranges, one unreferenced output, acyclicity."""
    n = len(c.nodes)
    if n == 0:
        raise MalformedCircuit("circuit has no nodes")
    outputs = []
    for i, node in enumerate(c.nodes, 1):
        kind = node[0]
        if kind not in _ARITY:
            raise MalformedCircuit(f"node {i}: unknown kind {kind!r}")
        if len(node) - 1 != _ARITY[kind]:
            raise ArityError(
                f"node {i}: {kind} takes {_ARITY[kind]} argument(s), got {len(node) - 1}"
            )
        if kind == "output":
            outputs.append(i)
        for ref in _refs(node):
            if not (1 <= ref <= n):
                raise DanglingRef(f"node {i}: reference to missing node {ref}")
    if len(outputs) != 1:
        raise MalformedCircuit(f"need exactly one output node, found {len(outputs)}")
    _check_wiring(c, outputs[0])


def _check_wiring(c: Circuit, out: int) -> None:
    """Nothing may reference the output node, and the wiring is acyclic."""
    for i, node in enumerate(c.nodes, 1):
        if out in _refs(node):
            raise MalformedCircuit(f"node {i}: references the output node")
    _topo_order(c)  # raises CyclicCircuit


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
    validate_circuit(c)
    return _eval_validated(c)


def _eval_validated(c: Circuit) -> bool:
    """Evaluation walk for a circuit already past validate_circuit.

    One pass in id order settles every backward-wired circuit; the first
    forward reference shows up as a still-unset operand and drops the walk
    down to an explicit topological order.
    """
    values: list = [None] * (len(c.nodes) + 1)
    result = None
    for i, node in enumerate(c.nodes, 1):
        kind = node[0]
        if kind == "input":
            values[i] = node[1]
            continue
        a = values[node[1]]
        if a is None:
            return _eval_in_order(c, _topo_order(c))
        if kind == "not":
            values[i] = not a
        elif kind == "and":
            b = values[node[2]]
            if b is None:
                return _eval_in_order(c, _topo_order(c))
            values[i] = a and b
        elif kind == "or":
            b = values[node[2]]
            if b is None:
                return _eval_in_order(c, _topo_order(c))
            values[i] = a or b
        else:
            result = a
            values[i] = a
    assert result is not None
    return result


def _eval_in_order(c: Circuit, order: list[int]) -> bool:
    values: dict[int, bool] = {}
    result = None
    for i in order:
        node = c.nodes[i - 1]
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
            result = values[node[1]]
            values[i] = result
    assert result is not None
    return result


def cvp_member(x: Instance) -> bool:
    """Total oracle over raw bytes: well-formed and evaluating to true."""
    try:
        return _eval_validated(parse_circuit(x))
    except MalformedCircuit:
        return False


def double_negate_output(c: Circuit) -> Circuit:
    """Rewire the output through two stacked negations; value is unchanged."""
    validate_circuit(c)
    out_idx = next(i for i, node in enumerate(c.nodes, 1) if node[0] == "output")
    target = c.nodes[out_idx - 1][1]

    def remap(r: int) -> int:
        return r - 1 if r > out_idx else r

    kept: list[Node] = []
    for i, node in enumerate(c.nodes, 1):
        if i == out_idx:
            continue
        kind = node[0]
        if kind == "input":
            kept.append(node)
        else:
            kept.append((kind, *(remap(r) for r in _refs(node))))
    base = len(kept)
    kept.append(("not", remap(target)))
    kept.append(("not", base + 1))
    kept.append(("output", base + 2))
    return Circuit(tuple(kept))


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
