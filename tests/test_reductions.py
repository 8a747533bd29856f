import pytest

from polytract.encoding import LanguageOfPairs, Pair, PolylogBound, split_packed
from polytract.errors import FactorizationMismatch
from polytract.factorization import (
    CrFactorization,
    FactoredLanguage,
    identity_factorization,
)
from polytract.preprocessing import PreprocessingWitness, verify_witness
from polytract.reductions import (
    FcrReduction,
    FReduction,
    compose_fcr,
    hardness_pack,
    pullback_witness_f,
    transfer_witness,
    verify_f_reduction,
    verify_fcr_reduction,
)

# Source problem: strings of 'a' of even length. Target problem: strings
# of 'b' of even length. The letter swap is a correct reduction on inputs
# that mix 'a' with non-'b' bytes only; sample domains below stay there.


def even_a(x: bytes) -> bool:
    return len(x) % 2 == 0 and all(c == 0x61 for c in x)


def even_b(x: bytes) -> bool:
    return len(x) % 2 == 0 and all(c == 0x62 for c in x)


def a_to_b(x: bytes) -> bytes:
    return x.replace(b"a", b"b")


def id_fact(name):
    return identity_factorization(name)


SWAP = FcrReduction(
    name="a-to-b",
    source_fact=id_fact("src"),
    target_fact=id_fact("dst"),
    map_data=a_to_b,
    map_query=lambda q: q,
)

PAIRS = [Pair(b"", b""), Pair(b"aa", b""), Pair(b"aaa", b""), Pair(b"xy", b"")]


def test_verify_fcr_reduction_passes_and_fails():
    assert verify_fcr_reduction(SWAP, even_a, even_b, PAIRS).passed
    broken = FcrReduction(
        name="keeps-a",
        source_fact=SWAP.source_fact,
        target_fact=SWAP.target_fact,
        map_data=lambda x: x,
        map_query=lambda q: q,
    )
    rep = verify_fcr_reduction(broken, even_a, even_b, PAIRS)
    assert not rep.passed


def test_compose_fcr_identity_pair():
    ident = FcrReduction(
        name="id",
        source_fact=id_fact("f"),
        target_fact=id_fact("f"),
        map_data=lambda x: x,
        map_query=lambda q: q,
    )
    composed = compose_fcr(ident, ident, even_a, probes=[b"aa", b"aaaa"])
    assert composed.source_fact.redundancy == 1
    assert composed.target_fact.redundancy == 1
    pairs = [Pair(composed.source_fact.data_part(x), b"")
             for x in (b"", b"aa", b"aaa", b"aaaa")]
    assert verify_fcr_reduction(composed, even_a, even_a, pairs).passed
    assert composed.map_query(b"anything") == b"anything"


def test_compose_fcr_probe_detects_broken_middle():
    bad_mid = CrFactorization(
        name="lossy",
        data_part=lambda x: x[: len(x) // 2],
        query_part=lambda x: b"",
        restore=lambda d, q: d,
        redundancy=0,
        query_bound=PolylogBound(0.0, 0, 0.0),
    )
    second = FcrReduction(
        name="from-lossy",
        source_fact=bad_mid,
        target_fact=id_fact("dst2"),
        map_data=lambda x: x,
        map_query=lambda q: q,
    )
    first = FcrReduction(
        name="to-lossy",
        source_fact=id_fact("src2"),
        target_fact=bad_mid,
        map_data=lambda x: x,
        map_query=lambda q: q,
    )
    with pytest.raises(FactorizationMismatch):
        compose_fcr(first, second, even_a, probes=[b"aaaa"])


def test_transfer_witness_shape_and_bound():
    target_witness = PreprocessingWitness(
        name="parity-bit",
        preprocess=lambda d: b"1" if even_b(d) else b"0",
        post_language=LanguageOfPairs(
            name="bit",
            membership=lambda d, q: d == b"1" and q == b"",
            short_query_bound=PolylogBound(0.0, 0, 0.0),
        ),
        output_bound=PolylogBound(0.0, 0, 1.0),
    )
    new_fact, new_witness = transfer_witness(SWAP, target_witness)
    assert new_fact.redundancy == SWAP.source_fact.redundancy + 1
    # bound template: a' = (0+0)*2^0 = 0, k' = 0, b' = 1 + 0 + 1 = 2
    assert new_witness.output_bound == PolylogBound(0.0, 0, 2.0)

    induced = LanguageOfPairs(
        name="packed-even-a",
        membership=lambda d, q: even_a(new_fact.restore(d, q)),
        short_query_bound=new_fact.query_bound,
    )
    positives = [Pair(new_fact.data_part(x), b"") for x in (b"", b"aa", b"aaaa")]
    negatives = [Pair(new_fact.data_part(x), b"") for x in (b"a", b"xy", b"aaa")]
    assert verify_witness(induced, new_witness, positives, negatives).passed


def test_transfer_witness_adds_and_scales_a_query_bound():
    # The middle factorization splits off the last byte as the query part,
    # under a log-squared query bound, so the transferred bound must add
    # both bounds' coefficients and scale them by 2**k at the larger k.
    last_byte = CrFactorization(
        name="last-byte", data_part=lambda x: x[:-1], query_part=lambda x: x[-1:],
        restore=lambda d, q: d + q, redundancy=0, query_bound=PolylogBound(1.0, 2, 4.0))

    def parity_class(d: bytes) -> bytes:
        # e or o for an all-'b' data part of even or odd length, x otherwise
        if any(c != 0x62 for c in d):
            return b"x"
        return b"o" if len(d) % 2 else b"e"

    mid_witness = PreprocessingWitness(
        name="parity-class",
        preprocess=parity_class,
        post_language=LanguageOfPairs(
            name="class-and-last",
            membership=lambda d, q: (d, q) in ((b"e", b""), (b"o", b"b")),
            short_query_bound=PolylogBound(0.0, 0, 1.0),
        ),
        output_bound=PolylogBound(2.0, 1, 3.0),
    )
    swap = FcrReduction("a-to-b", id_fact("src"), last_byte, a_to_b, lambda q: q)
    new_fact, new_witness = transfer_witness(swap, mid_witness)
    # k' = max(1, 2) = 2, a' = (2 + 1) * 2**2 = 12, b' = 3 + 4 + 1 = 8
    assert new_witness.output_bound == PolylogBound(12.0, 2, 8.0)

    data = new_fact.data_part(b"aaaa")
    digest = new_witness.preprocess(data)
    assert split_packed(digest) == (b"o", b"b")
    assert len(digest) <= new_witness.output_bound(len(data))

    induced = LanguageOfPairs(
        name="packed-even-a",
        membership=lambda d, q: even_a(new_fact.restore(d, q)),
        short_query_bound=new_fact.query_bound,
    )
    positives = [Pair(new_fact.data_part(x), b"") for x in (b"", b"aa", b"aaaa")]
    negatives = [Pair(new_fact.data_part(x), b"") for x in (b"a", b"xy", b"aaa", b"ay")]
    assert verify_witness(induced, new_witness, positives, negatives).passed


def test_hardness_pack_builds_valid_reduction():
    # Membership-preserving map into the target problem, then packing.
    packed = hardness_pack(a_to_b, id_fact("search"))
    assert packed.target_fact.redundancy == 1
    pairs = [Pair(x, b"") for x in (b"", b"a", b"aa", b"aaa", b"xy")]
    assert verify_fcr_reduction(packed, even_a, even_b, pairs).passed
    assert split_packed(packed.map_data(b"aa")) == (b"bb", b"")


def test_verify_fcr_reduction_fails_on_packed_bad_map():
    # hardness_pack checks nothing; a map that breaks membership shows up
    # as one iff row per failing pair.
    packed = hardness_pack(lambda x: x + b"b", id_fact("search"))
    pairs = [Pair(x, b"") for x in (b"", b"a", b"aa", b"xy")]
    rep = verify_fcr_reduction(packed, even_a, even_b, pairs)
    assert not rep.passed
    assert [c.name for c in rep.checks if not c.passed] == [
        "iff-equivalence", "pair[0].iff", "pair[2].iff"]


# Direct pair-language reductions.

SRC_LANG = LanguageOfPairs(
    name="has-byte",
    membership=lambda d, q: len(q) == 1 and q in d,
    short_query_bound=PolylogBound(0.0, 0, 1.0),
)
DST_LANG = LanguageOfPairs(
    name="has-upper-byte",
    membership=lambda d, q: len(q) == 1 and q.upper() in d,
    short_query_bound=PolylogBound(0.0, 0, 1.0),
)

UPPER = FReduction(
    name="uppercase",
    map_data=lambda d: d.upper(),
    map_query=lambda q: q,
)

F_PAIRS = [Pair(b"abc", b"b"), Pair(b"abc", b"z"), Pair(b"", b"a"), Pair(b"q", b"")]


def test_verify_f_reduction():
    assert verify_f_reduction(UPPER, SRC_LANG, DST_LANG, F_PAIRS).passed


def test_pullback_witness_f():
    target_witness = PreprocessingWitness(
        name="upper-byte-set",
        preprocess=lambda d: bytes(sorted(set(d))),
        post_language=LanguageOfPairs(
            name="post",
            membership=lambda d, q: len(q) == 1 and q.upper() in d,
            short_query_bound=PolylogBound(0.0, 0, 1.0),
        ),
        output_bound=PolylogBound(0.0, 0, 256.0),
    )
    pulled = pullback_witness_f(UPPER, target_witness, growth_pad=0)
    pos = [Pair(b"abc", b"b")]
    neg = [Pair(b"abc", b"z"), Pair(b"", b"a")]
    assert verify_witness(SRC_LANG, pulled, pos, neg).passed


def test_failing_reduction_report_is_pinned():
    # Uppercasing that drops data holding b"!" and reads a "?" query as
    # "A": one pair fails each way.
    sabotaged = FReduction(
        name="sabotaged-uppercase",
        map_data=lambda d: b"" if b"!" in d else d.upper(),
        map_query=lambda q: b"A" if q == b"?" else q,
    )
    pairs = [Pair(b"abc", b"b"), Pair(b"ab!", b"a"), Pair(b"AB", b"?"), Pair(b"q", b"")]
    assert verify_f_reduction(sabotaged, SRC_LANG, DST_LANG, pairs).to_dict() == {
        "name": "reduction:sabotaged-uppercase",
        "verdict": "fail",
        "checks": [
            {"name": "iff-equivalence", "passed": False, "measured": 2, "bound": 0,
             "detail": "4 pairs probed"},
            {"name": "pair[1].iff", "passed": False, "measured": None, "bound": None,
             "detail": "source True but target False"},
            {"name": "pair[2].iff", "passed": False, "measured": None, "bound": None,
             "detail": "source False but target True"},
        ],
    }
    assert verify_f_reduction(sabotaged, SRC_LANG, DST_LANG, []).to_dict() == {
        "name": "reduction:sabotaged-uppercase",
        "verdict": "pass",
        "checks": [
            {"name": "iff-equivalence", "passed": True, "measured": 0, "bound": 0,
             "detail": "0 pairs probed"},
        ],
    }
    assert verify_f_reduction(
        sabotaged, SRC_LANG, DST_LANG, [Pair(b"ab!", b"a")] * 52 + [Pair(b"abc", b"b")]
    ).to_dict() == {
        "name": "reduction:sabotaged-uppercase",
        "verdict": "fail",
        "checks": [
            {"name": "iff-equivalence", "passed": False, "measured": 52, "bound": 0,
             "detail": "53 pairs probed"},
            *({"name": f"pair[{i}].iff", "passed": False, "measured": None,
               "bound": None, "detail": "source True but target False"}
              for i in range(50)),
            {"name": "pair.overflow", "passed": False, "measured": 52, "bound": None,
             "detail": "2 further failing samples not itemized"},
        ],
    }
