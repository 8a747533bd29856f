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
