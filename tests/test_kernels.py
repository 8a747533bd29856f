"""Differential tests: the large-instance kernels against plain references.

Each kernel must return what its reference in oracles.py returns, or
raise the same exception class with the same message, on escape-dense
bytes, mutated or truncated graph blocks and mutated circuit texts. The
generators must draw the same instances and leave the random stream in
the same state as their rng.sample / rng.choices references.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polytract.encoding import AT, HASH, _unescaped_positions, unescape_payload
from polytract.errors import CyclicCircuit
from polytract.problems import bds, cvp


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


# ------------------------------------------------------------ encoding

# Chunks: delimiters, the escape letters, runs of one to four escape
# bytes (a delimiter is structural only behind an even run) and any byte.
ESCAPE_DENSE = st.lists(
    st.sampled_from([b"#", b"@", b"h", b"a", b"\\", b"\\" * 2, b"\\" * 3, b"\\" * 4])
    | st.binary(min_size=1, max_size=1),
    max_size=60,
).map(b"".join)


@settings(max_examples=300)
@given(ESCAPE_DENSE)
def test_unescaped_positions_match_byte_scan(x):
    for delim in (HASH, AT):
        assert _unescaped_positions(x, delim) == oracles.unescaped_positions_oracle(x, delim)


@settings(max_examples=300)
@given(ESCAPE_DENSE)
def test_unescape_matches_byte_scan(x):
    assert _outcome(unescape_payload, x) == _outcome(oracles.unescape_oracle, x)


# ------------------------------------------------------------ graphs

# Bytes a mutation may splice in: field separators the parser must treat
# like spaces or not, integer spellings int() accepts, non-ASCII digits,
# stray digits and signs, and line breaks that shift the line count.
SPLICES = [b" ", b"\t", b"\r", b"\x0b", b"\n", b"+1", b"1_0", b"-1", b"0", b"7",
           b"99", b"x", b"\xff", b"\xd9\xa1", b"1 2", b"\n1 2", b"  "]


@st.composite
def mutated(draw, base: bytes):
    data = bytearray(base)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            data[pos:pos] = draw(st.sampled_from(SPLICES))
        elif kind == 1:
            del data[pos:pos + draw(st.integers(1, 4))]
        elif kind == 2:
            del data[pos:]
        else:
            data[pos:pos + 1] = draw(st.sampled_from(SPLICES))
    return bytes(data)


@st.composite
def graph_blocks(draw):
    n = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = bds.random_graph(n, rng, draw(st.sampled_from((0.0, 0.3, 0.8))))
    tail = draw(st.sampled_from((b"", b"1 2", b"3 1\n", b"#x")))
    return draw(mutated(oracles.graph_text_oracle(g.n, g.numbering, g.edges) + tail))


def _graph_view(result):
    g, rest = result
    return (g.n, g.numbering, g.edges), rest


@settings(max_examples=400)
@given(graph_blocks())
def test_parse_graph_block_matches_line_parser(x):
    new = _outcome(lambda d: _graph_view(bds.parse_graph_block(d)), x)
    assert new == _outcome(oracles.parse_graph_block_oracle, x)
    assert _outcome(bds.split_block_tail, x) == _outcome(oracles.split_block_tail_oracle, x)


@given(st.integers(1, 6),
       st.lists(st.integers(1, 6), max_size=8),
       st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8)), max_size=10))
def test_make_graph_reports_the_first_bad_edge(n, numbering, edges):
    new = _outcome(lambda: (lambda g: (g.n, g.numbering, g.edges))(
        bds.make_graph(n, numbering, edges)))
    assert new == _outcome(oracles.make_graph_oracle, n, numbering, edges)


def test_huge_edge_count_is_a_truncation():
    x = b"2 99999999999999999999999\n1 2\n1 2\n"
    assert _outcome(bds.split_block_tail, x) == _outcome(oracles.split_block_tail_oracle, x)


@settings(max_examples=60)
@given(st.integers(2, 400), st.integers(0, 2**32))
def test_sparse_generator_draws_like_rng_sample(n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    g = bds.random_sparse_graph(n, rng)
    assert (g.numbering, g.edges) == oracles.sparse_graph_oracle(n, ref)
    assert rng.random() == ref.random()
    assert bds.graph_to_bytes(g) == oracles.graph_text_oracle(g.n, g.numbering, g.edges)


# ------------------------------------------------------------ circuits


@st.composite
def circuit_texts(draw):
    size = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = cvp.circuit_to_bytes(cvp.random_circuit(size, rng)).split(b"\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        idx = str(i + 1).encode()
        # Forward refs, self refs (cycles), refs past the end, refs to
        # the output, a second output, kind and arity changes.
        ref = str(draw(st.integers(-1, len(lines) + 2))).encode()
        lines[i] = draw(st.sampled_from((
            idx + b" not " + ref,
            idx + b" and " + ref + b" " + str(i + 1).encode(),
            idx + b" or 1 " + ref,
            idx + b" output " + ref,
            idx + b" input 1",
            idx + b" input 2",
            idx + b" xor 1 1",
            idx + b" not 1 2",
            lines[i] + b"\r",
            lines[i].replace(b" ", b"\t"),
        )))
    return draw(mutated(b"\n".join(lines) + b"\n"))


@settings(max_examples=400)
@given(circuit_texts())
def test_parse_circuit_matches_two_pass_parser(x):
    new = _outcome(lambda d: cvp.parse_circuit(d).nodes, x)
    assert new == _outcome(oracles.parse_circuit_oracle, x)


def test_forward_wired_and_cyclic_circuits():
    forward = b"1 not 2\n2 input 1\n3 output 1\n"
    assert cvp.parse_circuit(forward).nodes == oracles.parse_circuit_oracle(forward)
    assert cvp.cvp_member(forward) is False
    for cyclic in (b"1 input 1\n2 and 1 3\n3 not 2\n4 output 3\n",
                   b"1 not 1\n2 output 1\n"):
        assert _outcome(cvp.parse_circuit, cyclic) == _outcome(
            oracles.parse_circuit_oracle, cyclic)
        assert _outcome(cvp.parse_circuit, cyclic)[0] is CyclicCircuit


@settings(max_examples=60)
@given(st.integers(2, 400), st.integers(0, 2**32),
       st.sampled_from(((1, 2, 2), (1, 0, 0), (0, 0, 3), (5, 1, 1))))
def test_circuit_generator_draws_like_choices_and_randrange(size, seed, weights):
    rng, ref = random.Random(seed), random.Random(seed)
    c = cvp.random_circuit(size, rng, weights)
    assert c.nodes == oracles.random_circuit_oracle(size, ref, weights)
    assert rng.random() == ref.random()
    assert cvp.circuit_to_bytes(c) == oracles.circuit_text_oracle(c.nodes)


@pytest.mark.parametrize("weights", [(0, 0, 0), (1, 2), (1, -1, 0)])
def test_circuit_generator_rejects_weights_like_choices(weights):
    ref = _outcome(lambda: random.Random(1).choices("abc", weights))
    assert ref[0] is ValueError
    assert _outcome(cvp.random_circuit, 6, random.Random(1), weights)[0] is ValueError
