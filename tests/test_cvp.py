import random

import pytest

from polytract.errors import (
    ArityError,
    CyclicCircuit,
    DanglingRef,
    MalformedCircuit,
)
from polytract.problems import cvp

from oracles import cvp_eval_oracle


def c(*nodes):
    return cvp.Circuit(tuple(nodes))


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


def test_eval_matches_oracle_on_random_circuits():
    rng = random.Random(23)
    for _ in range(500):
        circ = cvp.random_circuit(rng.randrange(2, 15), rng)
        assert cvp.cvp_eval(circ) == cvp_eval_oracle(circ.nodes)


def test_text_roundtrip():
    rng = random.Random(8)
    for _ in range(200):
        circ = cvp.random_circuit(rng.randrange(2, 12), rng)
        assert cvp.parse_circuit(cvp.circuit_to_bytes(circ)) == circ


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


def test_negate_output_with_output_mid_sequence():
    circ = c(("input", True), ("output", 1), ("not", 1))
    flipped = cvp.negate_output(circ)
    assert cvp.cvp_eval(flipped) is False
    assert cvp.cvp_eval(circ) is True


def test_enumeration_yields_valid_unique_circuits():
    seen = set()
    for circ in cvp.enumerate_circuits(max_gates=1, max_inputs=2):
        cvp.validate_circuit(circ)
        assert circ.nodes not in seen
        seen.add(circ.nodes)
    assert len(seen) > 50
