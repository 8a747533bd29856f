"""Differential tests: the large-instance kernels against plain references.

Each kernel must return what its reference in oracles.py returns, or
raise the same exception class with the same message, on escape-dense
bytes, mutated or truncated graph blocks, canonical graph blocks with bad
edges and mutated circuit texts. The delimiter split is held to values
and exception classes only: where the raw split and the escape-parity
split pick different points, both reject, for different reasons. The generators must draw the same
instances and leave the random stream in the same state as their
rng.shuffle / rng.sample / rng.choices references.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polytract.catalog import build_catalog
from polytract.encoding import decode_pair, split_packed, unescape_payload
from polytract.errors import (
    CyclicCircuit,
    DanglingRef,
    MalformedCircuit,
    MalformedGraph,
    MalformedInstance,
)
from polytract.harness import SuiteConfig
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


def _split_by_parity(x: bytes, delim: int) -> tuple[bytes, bytes]:
    """Split at the one delimiter behind an even escape run, then unescape."""
    positions = oracles.unescaped_positions_oracle(x, delim)
    if len(positions) != 1:
        raise MalformedInstance(f"found {len(positions)} structural delimiters")
    p = positions[0]
    return oracles.unescape_oracle(x[:p]), oracles.unescape_oracle(x[p + 1:])


def _value_or_malformed(fn, *args):
    try:
        return fn(*args)
    except MalformedInstance:  # the split point decides only which message
        return MalformedInstance


@settings(max_examples=300)
@given(ESCAPE_DENSE)
def test_raw_delimiter_split_matches_parity_scan(x):
    def decode(y):
        pair = decode_pair(y)
        return pair.data, pair.query

    assert _value_or_malformed(decode, x) == _value_or_malformed(_split_by_parity, x, 0x23)
    assert _value_or_malformed(split_packed, x) == _value_or_malformed(
        _split_by_parity, x, 0x40)


@settings(max_examples=300)
@given(ESCAPE_DENSE)
def test_unescape_matches_byte_scan(x):
    assert _outcome(unescape_payload, x) == _outcome(oracles.unescape_oracle, x)


def test_unescape_matches_byte_scan_on_every_short_string():
    # Every string of length 0-6 over the escape byte, both escape
    # letters, both delimiters and one plain byte: 55,987 strings.
    count = 0
    for length in range(7):
        for chars in itertools.product(b"\\ha#@x", repeat=length):
            x = bytes(chars)
            assert _outcome(unescape_payload, x) == _outcome(oracles.unescape_oracle, x), x
            count += 1
    assert count == 55_987


def test_unescape_returns_a_clean_payload_itself():
    clean = b"plain payload, no delimiter or escape byte"
    assert unescape_payload(clean) is clean


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


# Blocks whose lines are in the canonical "u v\n" form, so the bulk edge
# parse runs its own checks instead of handing the block to the line
# loop: edges in any order and orientation, duplicates, self-loops,
# endpoints 0 and n + 1, a numbering that is not a bijection, tokens
# int() rejects, and a field moved to the line before it.
@st.composite
def canonical_blocks(draw):
    n = draw(st.integers(1, 8))
    numbering = draw(st.permutations(range(1, n + 1)))
    if draw(st.integers(0, 4)) == 0:
        numbering[draw(st.integers(0, n - 1))] = draw(st.integers(0, n + 1))
    slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.permutations([e for e in slots if draw(st.booleans())]))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 2))
        at = draw(st.integers(0, len(edges)))
        if kind == 0 and edges:
            u, v = draw(st.sampled_from(edges))
            edges.insert(at, draw(st.sampled_from(((u, v), (v, u)))))
        elif kind == 1:
            k = draw(st.integers(0, n + 1))
            edges.insert(at, (k, k))
        else:
            edges.insert(at, (draw(st.sampled_from((0, n + 1))), draw(st.integers(0, n + 1))))
    fields = [[str(u), str(v)] for u, v in edges]
    if fields and draw(st.integers(0, 4)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))][draw(st.integers(0, 1))] = draw(
            st.sampled_from(("1+1", "2-1", "0x1", "1.0", "")))
    lines = [" ".join(f) for f in fields]
    if len(lines) > 1 and draw(st.integers(0, 4)) == 0:
        # The same fields, one moved to the line before it.
        k = draw(st.integers(1, len(lines) - 1))
        lines[k - 1] += " " + fields[k][0]
        lines[k] = fields[k][1]
    text = (f"{n} {len(edges)}\n" + " ".join(map(str, numbering)) + "\n"
            + "".join(line + "\n" for line in lines))
    return text.encode("ascii") + draw(st.sampled_from((b"", b"1 2", b"2 1\n")))


def _edge_region(x: bytes) -> tuple[int, int, bytes]:
    head, _, region = x.split(b"\n", 2)
    n, m = map(int, head.split())
    return n, m, region[:len(region) - len(bds.split_block_tail(x)[1])]


@settings(max_examples=400)
@given(canonical_blocks())
def test_bulk_edge_parse_matches_line_parser(x):
    new = _outcome(lambda d: _graph_view(bds.parse_graph_block(d)), x)
    ref = _outcome(oracles.parse_graph_block_oracle, x)
    assert new == ref
    # Only a block the line parser accepts, or rejects for its numbering,
    # may get an edge set from the bulk parse of its m edge lines.
    n, m, region = _edge_region(x)
    keys = bds._edge_columns(n, region, 0, len(region)) if region.count(b"\n") == m else None
    bulk = None if keys is None else {divmod(k, n + 1) for k in keys}
    if ref[0] == "ok":
        assert bulk == ref[1][0][2] and len(keys) == m
    elif bulk is not None:
        assert ref == (MalformedGraph, "numbering is not a bijection onto 1..n")


@pytest.mark.parametrize("x", [
    b"3 2\n1 2 3\n3 2\n2 1\n1 3",     # reversed and out of order
    b"3 2\n3 1 2\n1 2\n2 1\n",        # the same edge both ways
    b"3 2\n1 2 3\n1 2\n1 2\n",        # the same line twice
    b"3 1\n1 2 3\n2 2\n",             # self-loop
    b"3 1\n1 2 3\n0 2\n",             # endpoint 0
    b"3 1\n1 2 3\n2 4\n",             # endpoint n + 1
    b"3 1\n1 1 3\n1 2\n",             # numbering not a bijection
    b"3 0\n2 3 1\n",                  # no edges
    b"3 0\n2 3 3\n1 2",               # no edges, bad numbering
    b"3 1\n1 2 3\n1+1 3\n",           # token int() rejects
    b"3 1\n1 2 3\n+1 3\n",            # token int() accepts, not canonical
    b"3 1\n1 2 3\n1\t3\n",            # tab between the fields
    b"3 2\n1 2 3\n1 2 3\n2\n",        # right field count, wrong lines
])
def test_bulk_edge_parse_named_cases(x):
    new = _outcome(lambda d: _graph_view(bds.parse_graph_block(d)), x)
    assert new == _outcome(oracles.parse_graph_block_oracle, x)


# ------------------------------------------------------------ membership


def _decided_by_oracle(block: bytes, query: bytes | None) -> bool:
    """Whether the line parser and the stack simulation put the query's
    first node before its second; the query is the block's own tail when
    None. Any exception means the bytes are not a member."""
    try:
        (n, numbering, edges), rest = oracles.parse_graph_block_oracle(block)
        if query is None:
            query = rest
        elif rest:
            return False
        u, v = map(int, query.split())
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            return False
        order = oracles.bds_order_oracle(n, numbering, edges)
        return order.index(u) < order.index(v)
    except Exception:
        return False


# The qbds pair language's membership, which reads a graph block and its
# query tail given apart.
QBDS_PAIR_MEMBER = build_catalog(SuiteConfig()).pair_languages["qbds-pairs"].membership


def _assert_members_match_oracle(x: bytes, cut: int) -> None:
    """bds_member on x, and the pair members on x cut in two and on all
    of x as the block, which must then hold no query of its own."""
    assert _outcome(bds.bds_member, x) == ("ok", _decided_by_oracle(x, None))
    for block, tail in ((x[:cut], x[cut:]), (x, b"1 2"), (x, b"2 1")):
        expected = ("ok", _decided_by_oracle(block, tail))
        assert _outcome(bds.block_member, block, tail) == expected
        assert _outcome(QBDS_PAIR_MEMBER, block, tail) == expected


@st.composite
def canonical_instances(draw):
    n = draw(st.integers(2, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = bds.random_instance(n, rng, draw(st.sampled_from((0.0, 0.3, 0.8))))
    return draw(st.sampled_from((x, bds.swap_query(x))))


@st.composite
def instances_and_cuts(draw):
    """Canonical instances and canonical blocks with bad edges, mutated,
    with a cut at the block's end when the block splits, else anywhere."""
    x = draw(st.one_of(canonical_instances(), canonical_blocks()).flatmap(mutated))
    try:
        cut = len(oracles.split_block_tail_oracle(x)[0])
    except MalformedGraph:
        cut = draw(st.integers(0, len(x)))
    return x, draw(st.sampled_from((cut, draw(st.integers(0, len(x))))))


@settings(max_examples=400)
@given(instances_and_cuts())
def test_members_match_oracle_on_mutated_instances(case):
    _assert_members_match_oracle(*case)


@pytest.mark.parametrize("x", [
    b"3 2\n2 3 1\n1 2\n2 3\n1 3",        # well formed
    b"3 2\n2 3 1\n1 2\n2 3\n3 1",        # the same, query swapped
    b"3 1\n1 2 3\n1 2\n1 3\n",          # tail holds a newline
    b"3 1\n1 2 3\n1 2\n\n1\n3\n",       # tail holds three
    b"3 1\n1 2 3\n01 2\n1 3",            # leading zero in an edge line
    b"03 1\n1 2 3\n1 2\n1 03",           # leading zeros in header and query
    b"3 1\n01 2 3\n1 2\n1 3",            # leading zero in the numbering
    b"3 2\n1 2 3\n1 2\n1 2\n1 3",        # duplicate edge
    b"3 2\n1 2 3\n1 2\n2 1\n1 3",        # duplicate edge, other orientation
    b"3 1\n1 2 3\n2 2\n1 3",             # self-loop
    b"3 1\n1 2 3\n0 2\n1 3",             # endpoint 0
    b"3 1\n1 2 3\n2 4\n1 3",             # endpoint n + 1
    b"3 0\n2 3 1\n1 2",                  # m = 0
    b"3 0\n2 3 1\n2 1",                  # m = 0, query swapped
    b"3 2\n1 2 3\n1 2\n1 3",             # truncated block
    b"3 2\n1 2 3\n",                     # truncated after the numbering
    b"3 1\n1 2 3",                        # truncated numbering line
])
def test_members_match_oracle_named_cases(x):
    try:
        cut = len(oracles.split_block_tail_oracle(x)[0])
    except MalformedGraph:
        cut = len(x)
    _assert_members_match_oracle(x, cut)


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


@given(st.integers(0, 300), st.integers(0, 2**32))
def test_numbering_shuffle_draws_like_rng_shuffle(n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    expected = list(range(1, n + 1))
    ref.shuffle(expected)
    assert bds._shuffled_numbering(n, rng) == expected
    assert rng.random() == ref.random()


@settings(max_examples=60)
@given(st.one_of(st.integers(2, 40), st.just(1024)), st.integers(0, 2**32))
def test_sparse_instance_writes_the_sparse_graph(n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    x = bds.random_sparse_instance(n, rng)
    g = bds.random_sparse_graph(n, ref)
    u, v = ref.sample(range(1, n + 1), 2)
    assert x == bds.instance_bytes(g, u, v)
    assert rng.random() == ref.random()


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


def _member_by_oracle(x: bytes) -> bool:
    """Whether the two-pass parser accepts x and the memoized evaluator
    finds it true."""
    try:
        nodes = oracles.parse_circuit_oracle(x)
    except MalformedCircuit:
        return False
    return oracles.cvp_eval_oracle(nodes)


@st.composite
def forward_circuit_texts(draw):
    """Canonical text of a random circuit with its ids permuted, so refs
    point both ways and the output may sit anywhere, then mutated."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    nodes = cvp.random_circuit(draw(st.integers(2, 12)), rng).nodes
    order = draw(st.permutations(range(len(nodes))))
    new_id = {old + 1: new + 1 for new, old in enumerate(order)}
    renumbered = tuple(node if node[0] == "input" else (node[0], *map(new_id.get, node[1:]))
                       for node in (nodes[old] for old in order))
    return draw(mutated(cvp.circuit_to_bytes(cvp.Circuit(renumbered))))


@settings(max_examples=400)
@given(st.one_of(circuit_texts(), forward_circuit_texts()))
def test_member_matches_oracles(x):
    assert cvp.cvp_member(x) is _member_by_oracle(x)


# (text, whether the column path takes it: all canonical text but one)
CIRCUIT_EDGES = [
    (b"01 input 1\n2 output 1\n", False),                  # id with a leading zero
    (b"+1 input 1\n2 output 1\n", False),                  # id with a sign
    (b"1 input 1\n2 not 1_0\n3 output 2\n", False),        # int() reads 10
    (b"1 input 01\n2 output 1\n", False),                  # bit with a leading zero
    (b"1 input 2\n2 output 1\n", False),                   # bit not 0 or 1
    (b"1 input 1\n2\tnot 1\n3 output 2\n", False),         # a tab
    (b"1 input 1\r\n2 output 1\r\n", False),               # CRLF line ends
    (b"1 input 1\n2  not 1\n3 output 2\n", False),         # a double space
    (b"1 input 1\n2 output 1", False),                      # no final newline
    (b"1 input 1\n\n2 output 1\n", False),                 # a blank line
    (b"1 2 3 4\n", False),                                 # a numeric kind
    (b"1 -6 0 0\n2 output 1\n", False),                    # a kind code as text
    (b"1 input 1\n2 1 and 1\n3 output 2\n", False),        # a kind word one field late
    (b"1 input 1\n2 and or 1\n3 output 2\n", False),       # two kind words
    (b"1 input 1\n2 not -1\n3 output 2\n", False),         # a negative ref
    # Canonical, but the ref is past what an int64 column holds.
    (b"1 input 1\n2 and 1 99999999999999999999\n3 output 2\n", False),
    (b"", True),                                            # no nodes
    (b"1 not 2\n2 input 0\n3 output 1\n", True),           # a forward reference
    (b"1 input 1\n2 output 1\n3 not 1\n", True),           # output mid-sequence
    (b"1 input 1\n2 output 1\n3 not 2\n", True),           # a ref to the output
    (b"1 input 1\n2 output 1\n3 output 1\n", True),        # two outputs
    (b"1 input 1\n2 not 0\n3 output 2\n", True),           # ref 0
    (b"1 input 1\n2 not 4\n3 output 2\n", True),           # ref n + 1
    (b"1 input 1\n2 and 3 1\n3 not 2\n4 output 3\n", True),  # a cycle
]


@pytest.mark.parametrize("x, columns", CIRCUIT_EDGES)
def test_circuit_edges_match_oracles(x, columns):
    new = _outcome(lambda d: cvp.parse_circuit(d).nodes, x)
    assert new == _outcome(oracles.parse_circuit_oracle, x)
    assert cvp.cvp_member(x) is _member_by_oracle(x)
    assert (cvp._chunk_columns(x) is not None) == columns


def _second_chunk_line(text: bytes) -> int:
    """Number of a line a few lines into the second chunk of text."""
    first_chunk = text.find(b"\n", cvp._CHUNK) + 1
    return text.count(b"\n", 0, first_chunk) + 5


@pytest.mark.parametrize("how", ["bad id", "dangling ref", "cycle"])
def test_bad_line_in_second_chunk_matches_oracle(how):
    text = cvp.circuit_to_bytes(cvp.random_circuit(6000, random.Random(14)))
    assert len(text) > 1 << 16
    lines = text.split(b"\n")
    j = _second_chunk_line(text)  # lines[j - 1] is line j
    if how == "bad id":
        lines[j - 1] = b"%d not 1" % (j + 1)
    elif how == "dangling ref":
        lines[j - 1] = b"%d and 1 %d" % (j, len(lines) + 3)
    else:
        lines[j - 1] = b"%d not %d" % (j, j + 1)
        lines[j] = b"%d not %d" % (j + 1, j)
    broken = b"\n".join(lines)
    ref = _outcome(oracles.parse_circuit_oracle, broken)
    assert ref[0] is {"bad id": MalformedCircuit, "dangling ref": DanglingRef,
                      "cycle": CyclicCircuit}[how]
    assert _outcome(cvp.parse_circuit, broken) == ref
    assert cvp.cvp_member(broken) is False
    assert (cvp._chunk_columns(broken) is None) == (how == "bad id")


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
