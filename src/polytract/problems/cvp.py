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

A Circuit is three columns, index i for node i: a kind code, the first
argument of and/or and the last argument of every kind but input. A
missing argument is 0, which names node 0: index 0 holds a false input
that no text lists. An input's bit is part of its code. Its nodes view
derives node tuples from the columns. parse_circuit checks the columns;
the generators and negate_output build them valid. Text written as
circuit_to_bytes writes it is turned into columns a chunk at a time;
any other text takes a line loop that names its first bad line. The one
check, for text and Circuit alike, is a ref scan, then a structure check
that picks the evaluation order: id order when every reference points
backward, else the topological order it builds to rule out a cycle.
Evaluation is one walk in that order up to the output node.
"""
from __future__ import annotations

import random
from array import array
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate, count, islice

from ..encoding import Instance
from ..errors import (
    ArityError,
    CyclicCircuit,
    DanglingRef,
    MalformedCircuit,
)
from .scan import read_ints

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


@dataclass(frozen=True, slots=True)
class Circuit:
    """The kind-code list and the two int64 argument columns described
    above, node 0 included; nodes derives the node tuples of nodes
    1..n."""

    kinds: list[int]
    left: array
    right: array

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple([
            (_KINDS[k], a, b) if k >= AND else (_KINDS[k], b) if k >= NOT
            else ("input", k == IN1)
            for k, a, b in islice(zip(self.kinds, self.left, self.right), 1, None)])


# Each code's line: the id goes in first, then the node's refs.
_LINE = {IN0: "%d input 0\n", IN1: "%d input 1\n", NOT: "%d not %%d\n",
         OUTPUT: "%d output %%d\n", AND: "%d and %%d %%d\n", OR: "%d or %%d %%d\n"}


def circuit_to_bytes(c: Circuit) -> Instance:
    n = len(c.kinds) - 1
    # Both argument columns interleaved: a ref is never 0, so the refs
    # in line order are the nonzero entries.
    args = array("q", bytes(16 * n))
    args[0::2] = c.left[1:]
    args[1::2] = c.right[1:]
    fmt = "".join(map(_LINE.__getitem__, islice(c.kinds, 1, None))) % tuple(range(1, n + 1))
    return (fmt % tuple(filter(None, args))).encode("ascii")


def negate_output_bytes(c: Circuit, data: Instance) -> Instance:
    """circuit_to_bytes(negate_output(c)), given data = circuit_to_bytes(c).
    With the output last, as the generators put it, only the last line
    changes: it turns into the negation and the new output follows."""
    n = len(c.kinds) - 1
    if c.kinds[n] != OUTPUT:
        return circuit_to_bytes(negate_output(c))
    head = data[:data.rfind(b"\n", 0, -1) + 1]
    return head + b"%d not %d\n%d output %d\n" % (n, c.right[n], n + 1, n)


def parse_circuit(data: Instance) -> Circuit:
    return _parse(data)[0]


def _parse(data: Instance) -> tuple[Circuit, list[int] | None]:
    """The checked columns of a circuit text and its evaluation order
    (see _check_structure)."""
    cols = _chunk_columns(data)
    if cols is None:
        cols = _line_columns(data)
    c = Circuit(*cols)
    return c, _order(c)


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
# The argument columns' entry for node 0, copied to start each column;
# also the missing argument appended for a new output.
_NODE_0 = array("q", [0])
# Every byte canonical text can hold: separators, digits and the
# letters of the kind words.
_CANONICAL_BYTES = b" \n0123456789adinoprtu"
# A coded line with its digits deleted: four fields, the code's sign.
_CODED_LINE = b" -  \n"


def _chunk_columns(data: bytes) -> tuple[list, array, array] | None:
    """The columns of data when every line is "id kind args\\n" as
    circuit_to_bytes writes it, ids dense from 1, else None. The lines
    are converted and checked a chunk at a time, so of all the lines
    only the columns are held."""
    if data and not data.endswith(b"\n"):  # the last line has no newline
        return None
    # Only bytes canonical text holds: so no minus sign, and every one
    # below is a code's.
    if data.translate(None, _CANONICAL_BYTES):
        return None
    # The last line's id must be the line count: a look at one line
    # that turns down much text of canonical bytes before the passes
    # below.
    lines = data.count(b"\n")
    if lines and not data.startswith(b"%d " % lines, data.rfind(b"\n", 0, -1) + 1):
        return None
    kinds, left, right = [IN0], _NODE_0[:], _NODE_0[:]
    start, end = 0, len(data)
    while start < end:
        # text no longer than a chunk is one chunk, found with no search
        stop = end if end - start <= _CHUNK else data.find(b"\n", start + _CHUNK) + 1 or end
        chunk = data[start:stop]
        for word, coded in _CODED_WORDS:
            chunk = chunk.replace(word, coded)
        # The last chunk holds the lines the earlier chunks left.
        k = chunk.count(b"\n") if stop < end else lines + 1 - len(kinds)
        # Every line must now be four decimals with single spaces, with a
        # code, negative, in the field after the id and in no other: each
        # line had one kind word, there, and was written as
        # circuit_to_bytes writes it.
        ints = read_ints(chunk, _CODED_LINE * k)
        if ints is None:
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


def _line_columns(data: bytes) -> tuple[list, array, array]:
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
            args = (0,)  # an input reads no node
        else:
            add_kind(_CODE[kind])
        add_left(args[0] if arity == 2 else 0)
        add_right(args[-1])
    try:
        return kinds, array("q", left), array("q", right)
    except OverflowError:  # a ref past int64, so out of range: name the first
        _scan_refs(Circuit(kinds, left, right))
        raise


def validate_circuit(c: Circuit) -> None:
    """parse_circuit's checks: ref ranges, one unreferenced output, acyclicity."""
    _order(c)


def _order(c: Circuit) -> list[int] | None:
    """Checks c; returns its evaluation order (see _check_structure)."""
    return _check_structure(c, _scan_refs(c))


def _scan_refs(c: Circuit) -> bool:
    """Whether every ref of c names an earlier node; raises for the
    first ref, in node order, outside 1..n."""
    kinds, left, right = c.kinds, c.left, c.right
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


def _check_structure(c: Circuit, backward: bool) -> list[int] | None:
    """The checks after _scan_refs found every ref in range and whether
    each names an earlier node: one output, nothing reading it, no
    cycle. Returns the evaluation order: None for id order, which is
    topological when every ref names an earlier node, else a
    topological order."""
    kinds, left, right = c.kinds, c.left, c.right
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
    return None if backward else _topo_order(c)  # raises CyclicCircuit


def _topo_order(c: Circuit) -> list[int]:
    """Ids in an order that puts every node after the nodes it reads:
    the order in which a depth-first search over the refs finishes
    them."""
    left, right = c.left, c.right
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
    return _walk(c, _order(c))


def _walk(c: Circuit, order: list[int] | None) -> bool:
    """Value of a checked circuit: evaluate the nodes in id order, or in
    `order` when given, and stop at the output. Either order sets every
    operand before it is read."""
    kinds, left, right = c.kinds, c.left, c.right
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

    The old output node turns into the negation in place (both kinds read
    only their last argument), so every other reference survives
    unchanged; a fresh output node reading it is appended. An edit of
    valid columns that keeps them valid, so nothing is checked.
    """
    out = c.kinds.index(OUTPUT)
    kinds = c.kinds[:]
    kinds[out] = NOT
    kinds.append(OUTPUT)
    return Circuit(kinds, c.left + _NODE_0, c.right + array("q", [out]))


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
    random_ = rng.random
    kinds = [IN0] + [IN1 if random_() < 0.5 else IN0 for _ in range(n_inputs)]
    left = [0] * len(kinds)
    right = left[:]
    codes = (NOT, AND, OR)
    if n_gates:
        # Inline forms of rng.choices(codes, weights) and rng.randrange(prev)
        # that draw the same numbers: bisect over the running weight sums,
        # and getrandbits(prev.bit_length()) until below prev. The k=0
        # call rejects bad weights as the first draw would, drawing nothing.
        rng.choices(codes, weights, k=0)
        cum = list(accumulate(weights))
        total = cum[-1] + 0.0
        getrandbits = rng.getrandbits
        add_kind, add_left, add_right = kinds.append, left.append, right.append
        for prev in range(n_inputs, n_inputs + n_gates):
            code = codes[bisect(cum, random_() * total, 0, 2)]
            bits = prev.bit_length()
            a = getrandbits(bits)
            while a >= prev:
                a = getrandbits(bits)
            if code == NOT:  # reads only its last argument
                a, b = -1, a
            else:
                b = getrandbits(bits)
                while b >= prev:
                    b = getrandbits(bits)
            add_kind(code)
            add_left(a + 1)
            add_right(b + 1)
    out_ref = 1 + rng.randrange(len(kinds) - 1)
    kinds.append(OUTPUT)
    left.append(0)
    right.append(out_ref)
    return Circuit(kinds, array("q", left), array("q", right))


def enumerate_circuits(max_gates: int = 3, max_inputs: int = 2):
    """Every circuit with at most max_gates gates, backward wiring only.

    Inputs range over 1..max_inputs with all assignments; each gate may
    reference any earlier node; the output may reference any node. The
    count grows steeply with either cap.
    """
    def gate_choices(prev: int):
        for a in range(1, prev + 1):
            yield NOT, 0, a
        for a in range(1, prev + 1):
            for b in range(1, prev + 1):
                yield AND, a, b
                yield OR, a, b

    def build(cols: tuple, gates_left: int):
        kinds, left, right = cols
        for out_ref in range(1, len(kinds)):
            yield Circuit(kinds + [OUTPUT], left + _NODE_0, right + array("q", [out_ref]))
        if gates_left == 0:
            return
        for gate in gate_choices(len(kinds) - 1):
            for col, field in zip(cols, gate):
                col.append(field)
            yield from build(cols, gates_left - 1)
            for col in cols:
                col.pop()

    for n_inputs in range(1, max_inputs + 1):
        for assignment in range(1 << n_inputs):
            inputs = [IN1 if assignment >> i & 1 else IN0 for i in range(n_inputs)]
            yield from build(([IN0, *inputs], _NODE_0 * (n_inputs + 1),
                              _NODE_0 * (n_inputs + 1)), max_gates)
