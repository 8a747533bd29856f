import random

import pytest
from hypothesis import given, settings, strategies as st

from polytract.errors import (
    ArityError,
    CyclicCircuit,
    DanglingRef,
    MalformedCircuit,
)
from polytract.problems import cvp

from oracles import (
    _validate_circuit,
    circuit_text_oracle,
    cvp_eval_oracle,
    parse_circuit_oracle,
)


def c(*nodes):
    return cvp.parse_circuit(circuit_text_oracle(nodes))


def test_pinned_evaluations():
    assert cvp.cvp_eval(c(("input", True), ("input", False), ("and", 1, 2), ("output", 3))) is False
    assert cvp.cvp_eval(c(("input", True), ("not", 1), ("not", 2), ("output", 3))) is True
    assert cvp.cvp_eval(c(("input", False), ("input", True), ("or", 1, 2), ("output", 3))) is True
    assert cvp.cvp_eval(c(("input", False), ("output", 1))) is False


def test_forward_references_are_allowed():
    # node 1 refers forward to node 2; still acyclic
    circ = c(("not", 2), ("input", False), ("output", 1))
    assert cvp.cvp_eval(circ) is True
    assert cvp_eval_oracle(circ.nodes) is True


def test_topo_order_runs_at_most_once_and_never_on_backward_wiring(monkeypatch):
    calls = []
    topo_order = cvp._topo_order

    def counted(circ):
        calls.append(circ)
        return topo_order(circ)

    monkeypatch.setattr(cvp, "_topo_order", counted)
    forward = b"1 not 2\n2 input 1\n3 output 1\n"
    assert cvp.cvp_member(forward) is False
    assert len(calls) == 1
    circ = cvp.parse_circuit(forward)
    calls.clear()
    assert cvp.cvp_eval(circ) is False
    assert len(calls) == 1

    calls.clear()
    backward = b"1 input 1\n2 output 1\n3 not 1\n"  # output mid-sequence
    assert cvp.cvp_member(backward) is True
    assert cvp.cvp_eval(cvp.parse_circuit(backward)) is True
    assert calls == []


def test_eval_matches_oracle_on_random_circuits():
    rng = random.Random(23)
    for _ in range(500):
        circ = cvp.random_circuit(rng.randrange(2, 15), rng)
        assert cvp.cvp_eval(circ) == cvp_eval_oracle(circ.nodes)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _renumbered(nodes, order):
    """nodes listed in the given order of old positions, refs following
    their nodes; refs outside the circuit stay as they are."""
    new_id = {old + 1: new + 1 for new, old in enumerate(order)}
    return tuple(
        node if node[0] == "input" else (node[0], *(new_id.get(r, r) for r in node[1:]))
        for node in (nodes[old] for old in order)
    )


@st.composite
def forward_wired(draw):
    """A random circuit with its ids permuted, so refs point both ways."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = cvp.random_circuit(draw(st.integers(2, 14)), rng).nodes
    return c(*_renumbered(nodes, draw(st.permutations(range(len(nodes))))))


@settings(max_examples=300)
@given(forward_wired())
def test_eval_matches_oracle_on_forward_wired_circuits(circ):
    want = cvp_eval_oracle(circ.nodes)
    assert cvp.cvp_eval(circ) == want
    assert cvp.cvp_member(cvp.circuit_to_bytes(circ)) == want


@st.composite
def mutated_circuits(draw):
    """Node tuples of a random circuit after one to three mutations: a ref
    out of range, the output moved, a ref to the output, a 2-cycle."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = list(cvp.random_circuit(draw(st.integers(3, 12)), rng).nodes)
    # In this order, so a moved output can be read from behind.
    kinds = ["move-output", "to-output", "range", "2-cycle"]
    for how in sorted(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)),
                      key=kinds.index):
        n = len(nodes)
        gates = [i for i, node in enumerate(nodes) if node[0] not in ("input", "output")]
        out = next(i for i, node in enumerate(nodes) if node[0] == "output")
        if how == "move-output":
            # Mid-sequence, behind the node it reads (moves come first, so
            # that ref is still in range): no forward ref added.
            lo = nodes[out][1]
            order = [i for i in range(n) if i != out]
            order.insert(draw(st.integers(lo, max(lo, n - 2))), out)
            nodes = list(_renumbered(nodes, order))
        elif how == "range":
            i = draw(st.sampled_from(gates + [out]))
            k = draw(st.integers(1, len(nodes[i]) - 1))
            nodes[i] = nodes[i][:k] + (draw(st.sampled_from([0, -1, n + 1])),) + nodes[i][k + 1:]
        elif how == "to-output" and gates:
            # A gate behind a moved output reads it by a backward ref.
            i = draw(st.sampled_from([g for g in gates if g > out] or gates))
            nodes[i] = (nodes[i][0], out + 1, *nodes[i][2:])
        elif how == "2-cycle" and len(gates) >= 2:
            i, j = draw(st.lists(st.sampled_from(gates), min_size=2, max_size=2, unique=True))
            nodes[i] = (nodes[i][0], j + 1, *nodes[i][2:])
            nodes[j] = (nodes[j][0], i + 1, *nodes[j][2:])
    return tuple(nodes)


@settings(max_examples=400)
@given(mutated_circuits())
def test_structure_checks_match_oracle_on_mutated_circuits(nodes):
    assert _outcome(lambda: cvp.validate_circuit(c(*nodes))) == _outcome(
        _validate_circuit, nodes)
    text = circuit_text_oracle(nodes)
    assert _outcome(lambda x: cvp.parse_circuit(x).nodes, text) == _outcome(
        parse_circuit_oracle, text)


def test_text_roundtrip():
    rng = random.Random(8)
    for _ in range(200):
        circ = cvp.random_circuit(rng.randrange(2, 12), rng)
        assert cvp.parse_circuit(cvp.circuit_to_bytes(circ)) == circ


def test_circuits_compare_equal_whichever_route_built_them():
    rng = random.Random(15)
    built = [cvp.random_circuit(rng.randrange(2, 15), rng) for _ in range(100)]
    built.append(cvp.random_circuit(6000, rng))
    assert len(cvp.circuit_to_bytes(built[-1])) > cvp._CHUNK
    for circ in built + list(map(cvp.negate_output, built)):
        assert cvp.parse_circuit(cvp.circuit_to_bytes(circ)) == circ
    # Text the chunk reader turns down goes through the line loop.
    canonical = b"1 input 1\n2 not 1\n3 output 2\n"
    spaced = b"1 input 1\n2  not 1\n3 output 2\n"
    assert cvp._chunk_columns(spaced) is None
    assert cvp.parse_circuit(spaced) == cvp.parse_circuit(canonical)


def test_parse_rejects_malformed_text():
    with pytest.raises(MalformedCircuit):
        cvp.parse_circuit(b"")
    with pytest.raises(MalformedCircuit):
        cvp.parse_circuit(b"1 frobnicate 2\n")
    with pytest.raises(MalformedCircuit):
        cvp.parse_circuit(b"7 input 1\n")  # id does not match the line
    with pytest.raises(MalformedCircuit):
        cvp.parse_circuit(b"1 input 2\n2 output 1\n")  # input must be a bit
    with pytest.raises(ArityError):
        cvp.parse_circuit(b"1 input 1\n2 and 1\n3 output 2\n")
    with pytest.raises(MalformedCircuit):
        cvp.parse_circuit("1 input 1\n2 output 1\né".encode("utf-8"))


def test_validate_structure():
    with pytest.raises(DanglingRef):
        cvp.validate_circuit(c(("input", True), ("output", 5)))
    with pytest.raises(CyclicCircuit):
        cvp.validate_circuit(c(("not", 2), ("not", 1), ("output", 1)))
    with pytest.raises(MalformedCircuit):
        cvp.validate_circuit(c(("input", True),))  # no output
    with pytest.raises(MalformedCircuit):
        cvp.validate_circuit(c(("input", True), ("output", 1), ("output", 1)))
    with pytest.raises(MalformedCircuit):
        # nothing may read the output node
        cvp.validate_circuit(c(("input", True), ("output", 1), ("not", 2)))


def test_member_is_total_on_garbage():
    assert cvp.cvp_member(b"") is False
    assert cvp.cvp_member(b"1 and and\n") is False
    assert cvp.cvp_member(b"\x00\x01") is False
    assert cvp.cvp_member(b"1 input 1\n2 output 1\n") is True


def test_double_negate_preserves_value():
    rng = random.Random(31)
    for _ in range(200):
        circ = cvp.random_circuit(rng.randrange(2, 12), rng)
        doubled = cvp.double_negate_output(circ)
        cvp.validate_circuit(doubled)
        assert len(doubled.nodes) == len(circ.nodes) + 2
        assert cvp.cvp_eval(doubled) == cvp.cvp_eval(circ)


def test_negate_output_flips_value():
    rng = random.Random(57)
    for _ in range(200):
        circ = cvp.random_circuit(rng.randrange(2, 12), rng)
        flipped = cvp.negate_output(circ)
        cvp.validate_circuit(flipped)
        assert len(flipped.nodes) == len(circ.nodes) + 1
        assert cvp.cvp_eval(flipped) == (not cvp.cvp_eval(circ))


def test_negations_run_no_structure_check(monkeypatch):
    rng = random.Random(61)
    circuits = [cvp.random_circuit(rng.randrange(2, 15), rng) for _ in range(50)]
    circuits.append(c(("input", True), ("output", 1), ("not", 1)))

    def refuse(*args):
        raise AssertionError("structure check ran")

    with monkeypatch.context() as patched:
        patched.setattr(cvp, "_check_structure", refuse)
        flipped = list(map(cvp.negate_output, circuits))
        doubled = list(map(cvp.double_negate_output, circuits))
    for circ, once, twice in zip(circuits, flipped, doubled):
        cvp.validate_circuit(once)
        cvp.validate_circuit(twice)
        assert cvp.cvp_eval(once) is not cvp.cvp_eval(circ)
        assert cvp.cvp_eval(twice) is cvp.cvp_eval(circ)


def test_negate_output_with_output_mid_sequence():
    circ = c(("input", True), ("output", 1), ("not", 1))
    flipped = cvp.negate_output(circ)
    assert cvp.cvp_eval(flipped) is False
    assert cvp.cvp_eval(circ) is True


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3000), st.integers(0, 2**32))
def test_negate_output_bytes_writes_the_negated_circuit(size, seed):
    circ = cvp.random_circuit(size, random.Random(seed))
    text = cvp.circuit_to_bytes(circ)
    assert cvp.negate_output_bytes(circ, text) == cvp.circuit_to_bytes(cvp.negate_output(circ))


def test_negate_output_bytes_with_output_mid_sequence():
    circ = c(("input", True), ("output", 1), ("not", 1))
    text = cvp.circuit_to_bytes(circ)
    assert cvp.negate_output_bytes(circ, text) == cvp.circuit_to_bytes(cvp.negate_output(circ))


def test_enumeration_yields_valid_unique_circuits():
    seen = set()
    for circ in cvp.enumerate_circuits(max_gates=1, max_inputs=2):
        cvp.validate_circuit(circ)
        assert circ.nodes not in seen
        seen.add(circ.nodes)
    assert len(seen) > 50
