import random
import tracemalloc
from array import array
from itertools import islice, permutations, repeat
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

from polytract.catalog import build_catalog
from polytract.errors import MalformedGraph, SameNode, UnknownNode
from polytract.harness import SuiteConfig
from polytract.problems import bds

from oracles import bds_order_oracle


def test_order_two_children_then_pop():
    g = bds.make_graph(3, (1, 2, 3), [(1, 2), (1, 3)])
    assert bds.bds_order(g) == (1, 2, 3)


def test_order_edgeless_is_ascending():
    g = bds.make_graph(3, (1, 2, 3), [])
    assert bds.bds_order(g) == (1, 2, 3)
    g5 = bds.make_graph(5, (5, 4, 3, 2, 1), [])
    # node numbered 1 is node 5, and so on back up
    assert bds.bds_order(g5) == (5, 4, 3, 2, 1)


def test_order_path_follows_stack():
    g = bds.make_graph(3, (1, 2, 3), [(1, 3), (3, 2)])
    assert bds.bds_order(g) == (1, 3, 2)


def test_order_matches_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 9)
        g = bds.random_graph(n, rng, 0.4)
        assert bds.bds_order(g) == bds_order_oracle(g.n, g.numbering, g.edges)


def test_decide_and_member():
    g = bds.make_graph(3, (1, 2, 3), [(1, 3), (3, 2)])
    assert bds.bds_decide(g, 3, 2)
    assert not bds.bds_decide(g, 2, 3)
    x = bds.instance_bytes(g, 3, 2)
    assert bds.bds_member(x)
    assert not bds.bds_member(bds.swap_query(x))
    with pytest.raises(SameNode, match="^query names node 2 twice$"):
        bds.bds_decide(g, 2, 2)
    with pytest.raises(UnknownNode, match="^node 0 is not in the graph$"):
        bds.bds_decide(g, 0, 2)
    # u is checked before v, and both before u == v.
    with pytest.raises(UnknownNode, match="^node 0 is not in the graph$"):
        bds.bds_decide(g, 0, 4)
    with pytest.raises(UnknownNode, match="^node 4 is not in the graph$"):
        bds.bds_decide(g, 4, 4)


def _assert_decide_matches_oracle(g):
    order = bds_order_oracle(g.n, g.numbering, g.edges)
    for u, v in permutations(range(1, g.n + 1), 2):
        assert bds.bds_decide(g, u, v) == (order.index(u) < order.index(v)), (g, u, v)


def test_decide_siblings_first_last_and_restart():
    # Node 4 is numbered 1 and records nodes 1, 2, 3 in one batch, in the
    # order of their numbers 3, 4, 2; node 5 is reached only by a restart.
    g = bds.make_graph(5, (3, 4, 2, 1, 5), [(4, 1), (4, 2), (4, 3)])
    assert bds_order_oracle(g.n, g.numbering, g.edges) == (4, 3, 1, 2, 5)
    _assert_decide_matches_oracle(g)


def test_decide_sorts_neighbors_that_arrive_in_descending_number_order():
    # Node 2's edges to nodes 3..6 come in node order, which is their
    # numbers 6, 5, 4, 3 in descending order; the batch records them
    # ascending by number when node 2 is expanded.
    g = bds.make_graph(6, (1, 2, 6, 5, 4, 3), [(1, 2), (2, 3), (2, 4), (2, 5), (2, 6)])
    assert bds_order_oracle(g.n, g.numbering, g.edges) == (1, 2, 6, 5, 4, 3)
    assert bds.bds_order(g) == (1, 2, 6, 5, 4, 3)
    _assert_decide_matches_oracle(g)


@st.composite
def decide_graphs(draw):
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["dense", "sparse", "split"]))
    if kind == "dense":
        return bds.random_graph(n, rng, draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])))
    if kind == "sparse":
        return bds.random_sparse_graph(n, rng, draw(st.sampled_from([0.5, 1.0, 3.0])))
    # No edge between nodes 1..cut and the rest, so the traversal restarts.
    g = bds.random_graph(n, rng, 0.6)
    cut = draw(st.integers(1, max(1, n - 1)))
    return bds.make_graph(n, g.numbering,
                          [(u, v) for u, v in g.edges if (u <= cut) == (v <= cut)])


@settings(max_examples=300)
@given(decide_graphs())
def test_decide_matches_oracle_order_on_every_pair(g):
    _assert_decide_matches_oracle(g)


def test_member_is_total_on_garbage():
    for junk in (b"", b"hello", b"2 1\n1 2\n1 2\n", b"1 0\n1\n", b"\xff\xff"):
        assert bds.bds_member(junk) is False


def test_make_graph_validation():
    with pytest.raises(MalformedGraph):
        bds.make_graph(2, (1, 1), [])
    with pytest.raises(MalformedGraph):
        bds.make_graph(2, (1, 2), [(1, 1)])
    with pytest.raises(MalformedGraph):
        bds.make_graph(2, (1, 2), [(1, 3)])
    with pytest.raises(MalformedGraph):
        bds.make_graph(2, (1, 2), [(1, 2), (2, 1)])


def test_block_split_is_byte_exact():
    g = bds.make_graph(3, (2, 1, 3), [(1, 2)])
    x = bds.instance_bytes(g, 1, 3)
    block, tail = bds.split_block_tail(x)
    assert block + tail == x
    assert tail == b"1 3"
    # non-canonical spacing in the tail must survive the split untouched
    weird = bds.graph_to_bytes(g) + b" 1   3"
    block2, tail2 = bds.split_block_tail(weird)
    assert block2 + tail2 == weird
    assert tail2 == b" 1   3"


def test_graph_text_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        g = bds.random_graph(rng.randrange(1, 10), rng)
        assert bds.parse_graph(bds.graph_to_bytes(g)) == g


def test_parse_instance_roundtrip():
    g = bds.make_graph(4, (2, 4, 1, 3), [(1, 2), (3, 4)])
    g2, u, v = bds.parse_instance(bds.instance_bytes(g, 4, 2))
    assert (g2, u, v) == (g, 4, 2)


def test_parse_rejects_malformed_blocks():
    for bad in (
        b"2\n1 2\n",              # header too short
        b"2 1\n1 2\n",            # missing edge line
        b"0 0\n\n",               # no nodes
        b"2 -1\n1 2\n",           # negative edge count
        b"2 0\n1 2\nleftover\n",  # trailing bytes in parse_graph
    ):
        with pytest.raises(MalformedGraph):
            bds.parse_graph(bad)


def test_enumeration_counts():
    # numberings factorial(n) times 2^(n choose 2) edge subsets
    assert sum(1 for _ in bds.enumerate_graphs(1)) == 1
    assert sum(1 for _ in bds.enumerate_graphs(2)) == 2 * 2
    assert sum(1 for _ in bds.enumerate_graphs(3)) == 6 * 8
    assert sum(1 for _ in bds.enumerate_graphs(4)) == 24 * 64


def test_sparse_generator_shape():
    rng = random.Random(3)
    g = bds.random_sparse_graph(200, rng, avg_degree=4.0)
    assert g.n == 200
    assert len(g.edges) == 400
    x = bds.random_sparse_instance(64, rng)
    bds.parse_instance(x)


def test_member_decides_without_a_numbered_graph(monkeypatch):
    g = bds.make_graph(4, (2, 4, 1, 3), [(1, 2), (3, 4), (2, 3)])
    x = bds.instance_bytes(g, 3, 1)
    swapped = bds.swap_query(x)
    expected = bds.bds_member(x)
    assert bds.bds_member(swapped) is not expected

    def no_graph(*args, **kwargs):
        raise AssertionError("bds_member built a NumberedGraph")

    monkeypatch.setattr(bds, "NumberedGraph", no_graph)
    assert bds.bds_member(x) is expected
    assert bds.bds_member(swapped) is not expected
    block, tail = bds.split_block_tail(x)
    assert bds.block_member(block, tail) is expected


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_and_member_peaks_stay_linear_in_the_input():
    # The 16,384-node rung of the bds verdict-bit ladder. Both calls build
    # the same key column, so neither may hold a tuple or hash set per
    # edge on top of it; the peaks are counted in input bytes, so the
    # bound holds on any host.
    x = build_catalog(SuiteConfig()).witnesses["bds-verdict-bit"].ladder_gen(16384, 42)[0]
    parse_peak = _traced_peak(bds.parse_instance, x)
    member_peak = _traced_peak(bds.bds_member, x)
    assert parse_peak < 12 * len(x), (parse_peak, len(x))
    assert member_peak < 12 * len(x), (member_peak, len(x))


def _assert_key_column(g):
    assert type(g.keys) is array and g.keys.typecode == "q"
    assert all(map(lt, g.keys, islice(g.keys, 1, None))), g
    assert all(1 <= u < v <= g.n for u, v in map(divmod, g.keys, repeat(g.n + 1))), g


def test_every_constructor_holds_one_ascending_key_column():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randrange(1, 12)
        g = bds.random_graph(n, rng, 0.5)
        _assert_key_column(g)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in sorted(g.edges)]
        rng.shuffle(edges)
        made = bds.make_graph(n, g.numbering, edges)
        _assert_key_column(made)
        assert made == g == bds.parse_graph(bds.graph_to_bytes(made))
        head = f"{n} {len(edges)}\n" + " ".join(map(str, g.numbering)) + "\n"
        # Canonical lines out of order take the bulk parse; tabs take the
        # line loop.
        for sep in (" ", "\t"):
            text = head + "".join(f"{u}{sep}{v}\n" for u, v in edges)
            parsed, rest = bds.parse_graph_block(text.encode("ascii") + b"1 2")
            _assert_key_column(parsed)
            assert (parsed, rest) == (g, b"1 2")
    for n in (2, 21, 22, 300):
        _assert_key_column(bds.random_sparse_graph(n, rng, 3.0))
    for g in bds.enumerate_graphs(4):
        _assert_key_column(g)
