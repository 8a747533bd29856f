"""The catalog's verdict table.

Every bds and qbds membership the catalog hands out decides through
Catalog.block_verdict, which asks bds.block_member once per (graph block,
query) pair. Each table-backed member must answer what its uncached oracle
answers, on well-formed, mutated, truncated and non-UTF-8 bytes, and a
check built on the table must still see every pair it is asked about.
"""
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from polytract.catalog import as_qbds, build_catalog, qbds_member
from polytract.errors import MalformedInstance
from polytract.factorization import apply_factorization
from polytract.harness import SuiteConfig, run_check
from polytract.problems import bds
from polytract.reductions import verify_fcr_reduction

SMALL = SuiteConfig(random_budget=25, witness_samples=10)
# One catalog for every example, so later examples also meet answers the
# table already holds.
CAT = build_catalog(SuiteConfig())
# Every graph up to 3 nodes with every query, sampler draws with their
# malformed strays, and the witness's labeled instances.
INSTANCES = sorted({
    *bds.enumerate_instances(3),
    *CAT.sampler("bds")(0, 0, 30),
    *(pair.data for side in CAT.witnesses["bds-verdict-bit"].sample_pairs(0, 10)
      for pair in side)})
NON_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80")
SPLICES = (b"#", b"@", b"\\", b"\n", b" ", b"0", b"9", b"-1", *NON_UTF8)


@st.composite
def hostile(draw):
    """A drawn instance, or its qbds join, with up to three edits: a bit
    flip, a spliced delimiter, digit or non-UTF-8 byte, a truncation, a
    duplicated run or a deleted one."""
    x = draw(st.sampled_from(INSTANCES))
    data = bytearray(draw(st.sampled_from((x, as_qbds(x)))))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.integers(0, 4))
        if kind == 0 and data:
            data[min(pos, len(data) - 1)] ^= 1 << draw(st.integers(0, 7))
        elif kind == 1:
            data[pos:pos] = draw(st.sampled_from(SPLICES))
        elif kind == 2:
            del data[pos:]
        elif kind == 3:
            data[pos:pos] = data[draw(st.integers(0, pos)):pos]
        else:
            del data[pos:pos + draw(st.integers(1, 4))]
    return bytes(data)


def _cuts(x: bytes, cut: int) -> list[tuple[bytes, bytes]]:
    """x cut anywhere, and at its block's end when it splits."""
    cuts = [(x[:cut], x[cut:])]
    try:
        cuts.append(bds.split_block_tail(x))
    except MalformedInstance:
        pass
    return cuts


@settings(max_examples=400)
@given(st.one_of(hostile(), st.binary(max_size=48)), st.integers(0, 2**16))
def test_table_members_equal_their_uncached_oracles(x, cut):
    verdict = bds.bds_member(x)
    joined = qbds_member(x)
    assert CAT.bds_verdict(x) is verdict
    assert CAT.qbds_verdict(x) is joined
    assert CAT.problems["bds"].member(x) is verdict
    assert CAT.problems["qbds"].member(x) is joined
    assert CAT.factored["bds-all-data"].base(x) is verdict
    for name in ("qbds-all-data", "qbds-absorb"):
        assert CAT.factored[name].base(x) is joined
    witness = CAT.witnesses["bds-verdict-bit"]
    assert witness.witness.preprocess(x) == (b"1" if verdict else b"0")
    assert witness.language.membership(x, b"") is verdict
    for block, query in _cuts(x, cut % (len(x) + 1)):
        expected = bds.block_member(block, query)
        assert CAT.block_verdict(block, query) is expected
        assert CAT.pair_languages["qbds-pairs"].membership(block, query) is expected


def test_an_instance_and_its_join_make_one_entry():
    cat = build_catalog(SMALL)
    split = [(x, len(_cuts(x, 0)) == 2) for x in INSTANCES]
    entries = 0
    for x, splits in split:
        cat.bds_verdict(x)
        cat.qbds_verdict(as_qbds(x))
        if splits:
            cat.block_verdict(*bds.split_block_tail(x))
            entries += 1
        # bytes that do not split, and so hold no '#' once joined, are
        # out with no entry
        assert len(cat.verdicts) == entries
    assert 0 < entries < len(split)


def test_table_keys_are_fixed_size_digests():
    config = replace(SMALL, ladder=(64, 128, 256, 512))
    cat = build_catalog(config)
    # the witness check decides its 512-node rung and its labeled pairs
    run_check(cat, config, "witness:bds-verdict-bit")
    assert len(cat.verdicts) > 2 * 4
    assert {(type(key), len(key)) for key in cat.verdicts} == {(bytes, 16)}
    assert {type(verdict) for verdict in cat.verdicts.values()} == {bool}


def test_a_query_swapping_reduction_still_fails_with_the_table():
    cat = build_catalog(SMALL)
    entry = cat.fcr_reductions["qbds-to-bds"]
    # the honest check passes and leaves every sample's verdict in the table
    assert run_check(cat, SMALL, "reduction:qbds-to-bds").passed

    def swapped(d: bytes) -> bytes:
        try:
            return bds.swap_query(d)
        except MalformedInstance:
            return d

    sabotaged = replace(entry.reduction, map_data=swapped)
    pairs = [apply_factorization(sabotaged.source_fact, y)
             for y in cat.sampler("qbds")(SMALL.seed, 3, SMALL.random_budget)]
    rep = verify_fcr_reduction(sabotaged, entry.source_member, entry.target_member, pairs)
    uncached = verify_fcr_reduction(sabotaged, qbds_member, bds.bds_member, pairs)
    assert not rep.passed
    assert rep.to_dict() == uncached.to_dict()
    # every well-formed sample flips, so nearly every pair fails its iff row
    assert rep.checks[0].measured > len(pairs) // 2

