import dataclasses

import pytest

from polytract.encoding import Pair, PolylogBound, split_packed
from polytract.errors import NonMemberSample
from polytract.factorization import (
    FactoredLanguage,
    apply_factorization,
    identity_factorization,
    packed_factorization,
    verify_factorization,
    check_prop1,
)


def all_ones(x: bytes) -> bool:
    return len(x) > 0 and all(b == 0x31 for b in x)


def split_last_byte():
    """Data = all but the last byte, query = the last byte, no overhead."""
    from polytract.factorization import CrFactorization
    return CrFactorization(
        name="last-byte",
        data_part=lambda x: x[:-1],
        query_part=lambda x: x[-1:],
        restore=lambda d, q: d + q,
        redundancy=0,
        query_bound=PolylogBound(0.0, 0, 1.0),
    )


def test_identity_factorization_contract():
    fl = FactoredLanguage("ones", all_ones, identity_factorization())
    samples = [b"1", b"11", b"1" * 40]
    rep = verify_factorization(fl, samples)
    assert rep.passed
    rep2 = check_prop1(fl, samples)
    assert rep2.passed
    assert apply_factorization(fl.fact, b"111") == Pair(b"111", b"")


def test_split_factorization_contract():
    fl = FactoredLanguage("ones", all_ones, split_last_byte())
    rep = verify_factorization(fl, [b"1", b"11", b"1" * 9])
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["redundancy"].measured == 0  # slack exactly zero


def test_non_member_sample_raises():
    fl = FactoredLanguage("ones", all_ones, identity_factorization())
    with pytest.raises(NonMemberSample):
        verify_factorization(fl, [b"10"])
    with pytest.raises(NonMemberSample):
        check_prop1(fl, [b""])


def test_broken_restore_is_caught():
    fact = dataclasses.replace(split_last_byte(), restore=lambda d, q: d)
    fl = FactoredLanguage("ones", all_ones, fact)
    rep = verify_factorization(fl, [b"11", b"111"])
    assert not rep.passed
    assert any(c.name == "restore-roundtrip" and not c.passed for c in rep.checks)


def test_redundancy_violation_is_caught():
    base = split_last_byte()
    fact = dataclasses.replace(
        base,
        data_part=lambda x: x,          # keeps everything
        query_part=lambda x: x[-1:],    # and repeats the last byte
        restore=lambda d, q: d,
    )
    fl = FactoredLanguage("ones", all_ones, fact)
    rep = verify_factorization(fl, [b"11"])
    assert not rep.passed
    assert any(c.name == "redundancy" and not c.passed for c in rep.checks)


def test_query_bound_violation_is_caught():
    base = split_last_byte()
    fact = dataclasses.replace(
        base,
        data_part=lambda x: x[:1],
        query_part=lambda x: x[1:],
        restore=lambda d, q: d + q,
    )
    fl = FactoredLanguage("ones", all_ones, fact)
    rep = verify_factorization(fl, [b"1" * 12])
    assert not rep.passed
    assert any(c.name == "query-bound" and not c.passed for c in rep.checks)


def test_packed_factorization_adds_one_byte():
    base = split_last_byte()
    packed = packed_factorization(base)
    assert packed.redundancy == base.redundancy + 1
    x = b"1111"
    d = packed.data_part(x)
    assert packed.query_part(x) == b""
    assert split_packed(d) == (b"111", b"1")
    assert packed.restore(d, b"") == x
    fl = FactoredLanguage("ones", all_ones, packed)
    assert verify_factorization(fl, [b"1", b"11111"]).passed


def test_packed_restore_total_on_garbage():
    packed = packed_factorization(split_last_byte())
    assert packed.restore(b"no joiner", b"") == b"no joiner"


def test_induced_pairs_language():
    fl = FactoredLanguage("ones", all_ones, split_last_byte())
    lang = fl.induced_pairs_language()
    assert lang.membership(b"11", b"1")
    assert not lang.membership(b"11", b"0")
    assert lang.short_query_bound is fl.fact.query_bound


def tagged_factorization():
    """Digit strings whose first byte picks the condition they break:
    0 none, 1 restore, 2 redundancy, 3 the query bound."""
    from polytract.factorization import CrFactorization
    return CrFactorization(
        name="tagged",
        data_part=lambda x: {b"2": x, b"3": x[:3]}.get(x[:1], x[:-1]),
        query_part=lambda x: x[3:] if x[:1] == b"3" else x[-1:],
        restore=lambda d, q: d if d[:1] in (b"1", b"2") else d + q,
        redundancy=0,
        query_bound=PolylogBound(1.0, 1, 0.0),
    )


def test_failing_factorization_reports_are_pinned():
    fl = FactoredLanguage("digits", bytes.isdigit, tagged_factorization())
    samples = [b"0", b"01", b"12", b"23", b"34567890", b"0123"]
    assert verify_factorization(fl, samples).to_dict() == {
        "name": "factorization:digits",
        "verdict": "fail",
        "checks": [
            {"name": "restore-roundtrip", "passed": False, "measured": 1,
             "bound": 0, "detail": "6 member samples"},
            {"name": "redundancy", "passed": False, "measured": 1, "bound": 0,
             "detail": "observed slack in [0, 1]"},
            {"name": "query-bound", "passed": False, "measured": 5,
             "bound": "1.0*log2(n)^1+0.0", "detail": ""},
            {"name": "sample[2].restore", "passed": False, "measured": None,
             "bound": None, "detail": "restore(parts) != x"},
            {"name": "sample[3].redundancy", "passed": False, "measured": None,
             "bound": None, "detail": "slack 1 > 0"},
            {"name": "sample[4].query-bound", "passed": False, "measured": None,
             "bound": None, "detail": "|q|=5 > 1.58"},
        ],
    }
    assert check_prop1(fl, samples).to_dict() == {
        "name": "prop1:digits",
        "verdict": "fail",
        "checks": [
            {"name": "query-short-in-whole-size", "passed": False, "measured": 5,
             "bound": "1.0*log2(n)^1+0.0 at n+0", "detail": "6 member samples"},
            {"name": "sample[4].whole-size-bound", "passed": False, "measured": None,
             "bound": None, "detail": "|q|=5 > 3.00"},
        ],
    }
    assert verify_factorization(fl, []).to_dict() == {
        "name": "factorization:digits",
        "verdict": "pass",
        "checks": [
            {"name": "restore-roundtrip", "passed": True, "measured": 0,
             "bound": 0, "detail": "0 member samples"},
            {"name": "redundancy", "passed": True, "measured": None, "bound": 0,
             "detail": "observed slack in [None, None]"},
            {"name": "query-bound", "passed": True, "measured": None,
             "bound": "1.0*log2(n)^1+0.0", "detail": ""},
        ],
    }
    assert check_prop1(fl, []).to_dict() == {
        "name": "prop1:digits",
        "verdict": "pass",
        "checks": [
            {"name": "query-short-in-whole-size", "passed": True, "measured": None,
             "bound": "1.0*log2(n)^1+0.0 at n+0", "detail": "0 member samples"},
        ],
    }
    # 53 broken restores: 50 itemized rows and one overflow row.
    assert verify_factorization(fl, [b"0"] + [b"12"] * 53).to_dict() == {
        "name": "factorization:digits",
        "verdict": "fail",
        "checks": [
            {"name": "restore-roundtrip", "passed": False, "measured": 53,
             "bound": 0, "detail": "54 member samples"},
            {"name": "redundancy", "passed": True, "measured": 0, "bound": 0,
             "detail": "observed slack in [0, 0]"},
            {"name": "query-bound", "passed": True, "measured": 1,
             "bound": "1.0*log2(n)^1+0.0", "detail": ""},
            *({"name": f"sample[{i}].restore", "passed": False, "measured": None,
               "bound": None, "detail": "restore(parts) != x"} for i in range(1, 51)),
            {"name": "sample.overflow", "passed": False, "measured": 53,
             "bound": None, "detail": "3 further failing samples not itemized"},
        ],
    }
    # Prop 1 itemizes the same way: 52 long queries, one overflow row.
    assert check_prop1(fl, [b"3" * 9] * 52).to_dict()["checks"][-2:] == [
        {"name": "sample[49].whole-size-bound", "passed": False, "measured": None,
         "bound": None, "detail": "|q|=6 > 3.17"},
        {"name": "sample.overflow", "passed": False, "measured": 52,
         "bound": None, "detail": "2 further failing samples not itemized"},
    ]
    for check in (verify_factorization, check_prop1):
        with pytest.raises(NonMemberSample, match=r"^sample 2 is not a member of digits$"):
            check(fl, [b"0", b"12", b"1x", b"23"])


def test_failing_short_query_report_is_pinned():
    from polytract.encoding import LanguageOfPairs
    from polytract.factorization import check_short_query
    lang = LanguageOfPairs("digit-pairs", lambda d, q: (d + q).isdigit(),
                           PolylogBound(1.0, 1, 0.0))
    pairs = [Pair(b"1234", b"12"), Pair(b"12", b"123"), Pair(b"123", b"1")]
    assert check_short_query(lang, pairs).to_dict() == {
        "name": "short-query:digit-pairs",
        "verdict": "fail",
        "checks": [
            {"name": "short-query", "passed": False, "measured": 3,
             "bound": "1.0*log2(n)^1+0.0", "detail": "3 member samples"},
            {"name": "sample[1].short-query", "passed": False, "measured": None,
             "bound": None, "detail": "|Q|=3 > 1.00"},
        ],
    }
    assert check_short_query(lang, []).to_dict() == {
        "name": "short-query:digit-pairs",
        "verdict": "pass",
        "checks": [
            {"name": "short-query", "passed": True, "measured": None,
             "bound": "1.0*log2(n)^1+0.0", "detail": "0 member samples"},
        ],
    }
    rep = check_short_query(lang, [Pair(b"12345", b"1234")] * 51).to_dict()
    assert rep["checks"][0] == {
        "name": "short-query", "passed": False, "measured": 4,
        "bound": "1.0*log2(n)^1+0.0", "detail": "51 member samples"}
    assert rep["checks"][1:] == [
        *({"name": f"sample[{i}].short-query", "passed": False, "measured": None,
           "bound": None, "detail": "|Q|=4 > 2.32"} for i in range(50)),
        {"name": "sample.overflow", "passed": False, "measured": 51,
         "bound": None, "detail": "1 further failing samples not itemized"},
    ]
    with pytest.raises(NonMemberSample, match=r"^sample 1 is not a member of digit-pairs$"):
        check_short_query(lang, [Pair(b"1", b"2"), Pair(b"1", b"x")])
