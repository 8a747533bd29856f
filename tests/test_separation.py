import pytest

from polytract.encoding import PolylogBound
from polytract.errors import CapExceeded
from polytract.problems import bds
from polytract.separation import (
    CollisionWitness,
    count_realizable_orders,
    find_truncation_collision,
    log2_factorial,
    realizable_orders,
    separation_report,
    truncation_digest,
)

from oracles import bds_order_oracle, factorial_oracle


def test_edgeless_family_realizes_every_order():
    for n in (1, 2, 3, 4, 5):
        orders = realizable_orders(n)
        assert len(orders) == factorial_oracle(n)
        assert count_realizable_orders(n) == factorial_oracle(n)


def test_all_graphs_family_matches_edgeless_at_small_n():
    # edges never create visit orders beyond the n! the numberings give
    for n in (1, 2, 3, 4):
        assert {bds.bds_order(g) for g in bds.enumerate_graphs(n)} == realizable_orders(n)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        realizable_orders(9)


def test_truncation_digest_prefix():
    data = b"\xab\xcd\xef"
    assert truncation_digest(data, 24) == data
    assert truncation_digest(data, 8) == b"\xab"
    # masked last byte keeps only the requested prefix bits
    assert truncation_digest(data, 12) == b"\xab\xc0"
    assert truncation_digest(data, 3) == b"\xa0"
    # short data is zero-padded out to the requested width
    assert truncation_digest(b"", 8) == b"\x00"


def test_find_truncation_collision():
    witness = find_truncation_collision(5, 6)
    assert isinstance(witness, CollisionWitness)
    assert witness.first != witness.second
    assert bds.bds_order(witness.first) != bds.bds_order(witness.second)
    assert witness.digest == truncation_digest(bds.graph_to_bytes(witness.first), 6)
    assert witness.digest == truncation_digest(bds.graph_to_bytes(witness.second), 6)
    assert witness.bits == 6


def test_no_collision_when_prefix_reaches_the_numbering():
    # the two n = 2 encodings first differ at byte 4, so a 40-bit prefix
    # separates them and no collision exists
    assert find_truncation_collision(2, 40) is None


def test_log2_factorial():
    import math
    for n in (1, 2, 5, 10, 40):
        assert log2_factorial(n) == pytest.approx(math.log2(factorial_oracle(n)))


def test_separation_report_rows():
    bound = PolylogBound(1.0, 2, 0.0)
    rep = separation_report(range(1, 21), bound, enumerate_max=5)
    assert rep.factorial_beats_power_from_4
    by_n = {row["n"]: row for row in rep.rows}
    assert by_n[3]["factorial"] == 6
    assert by_n[4]["factorial"] == 24
    assert by_n[5]["factorial"] == 120
    assert by_n[5]["realizable"] == 120
    assert by_n[6]["realizable"] is None  # beyond the enumeration budget
    for n in range(4, 21):
        assert by_n[n]["factorial"] > by_n[n]["two_pow_n"]
    assert by_n[3]["factorial"] < by_n[3]["two_pow_n"]
    assert rep.collision is not None
    lines = rep.csv_lines()
    assert lines[0].startswith("n,")
    assert len(lines) == 21


def test_orders_are_actually_reachable():
    # spot check: every enumerated order comes from some real traversal
    orders = {bds.bds_order(g) for g in bds.enumerate_graphs(3)}
    assert orders == {bds_order_oracle(g.n, g.numbering, g.edges)
                      for g in bds.enumerate_graphs(3)}
