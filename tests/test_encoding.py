import random

import pytest
from hypothesis import given, strategies as st

from polytract.encoding import (
    Pair,
    PolylogBound,
    ZERO_BOUND,
    decode_pair,
    encode_pair,
    escape_payload,
    pack_at,
    parse_bound,
    shifted_bound,
    split_packed,
    unescape_payload,
)
from polytract.errors import MalformedInstance


def test_pinned_pair_encodings():
    assert encode_pair(Pair(b"abc", b"q")) == b"abc#q"
    assert encode_pair(Pair(b"", b"")) == b"#"
    assert encode_pair(Pair(b"#", b"")) == b"\\h#"
    assert encode_pair(Pair(b"a@b", b"\\")) == b"a\\ab#\\\\"
    assert decode_pair(b"abc#q") == Pair(b"abc", b"q")


def test_escape_roundtrip_examples():
    for raw in (b"", b"#", b"@", b"\\", b"\\h", b"plain", b"#@\\#@\\"):
        assert unescape_payload(escape_payload(raw)) == raw


def test_unescape_rejects_bad_input():
    with pytest.raises(MalformedInstance):
        unescape_payload(b"raw#hash")
    with pytest.raises(MalformedInstance):
        unescape_payload(b"dangling\\")
    with pytest.raises(MalformedInstance):
        unescape_payload(b"\\q")


def test_decode_requires_exactly_one_separator():
    with pytest.raises(MalformedInstance):
        decode_pair(b"no separator")
    with pytest.raises(MalformedInstance):
        decode_pair(b"a#b#c")
    # escaped separators do not count
    assert decode_pair(b"a\\h#b") == Pair(b"a#", b"b")


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_pair_roundtrip_hypothesis(d, q):
    enc = encode_pair(Pair(d, q))
    assert decode_pair(enc) == Pair(d, q)
    # One extra byte per '#', '@' or '\\' in either part.
    extra = sum(p.count(b"#") + p.count(b"@") + p.count(b"\\") for p in (d, q))
    assert len(enc) == len(d) + len(q) + 1 + extra


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_pack_roundtrip_hypothesis(a, b):
    z = pack_at(a, b)
    assert split_packed(z) == (a, b)
    # One extra byte per '#', '@' or '\\' in either part.
    extra = sum(p.count(b"#") + p.count(b"@") + p.count(b"\\") for p in (a, b))
    assert len(z) == len(a) + len(b) + 1 + extra


def test_bulk_seeded_roundtrips():
    rng = random.Random(2026)
    for _ in range(10_000):
        d = rng.randbytes(rng.randrange(16))
        q = rng.randbytes(rng.randrange(8))
        assert decode_pair(encode_pair(Pair(d, q))) == Pair(d, q)
        assert split_packed(pack_at(d, q)) == (d, q)


def test_polylog_bound_evaluation():
    b = PolylogBound(3.0, 1, 8.0)
    assert b(1024) == 3.0 * 10 + 8.0
    # sizes below 2 are clamped so log2 never goes negative
    assert b(0) == b(1) == b(2)
    assert ZERO_BOUND(10_000) == 0.0
    assert PolylogBound(0.0, 0, 1.0)(999) == 1.0


def test_polylog_bound_validation():
    with pytest.raises(ValueError):
        PolylogBound(-1.0, 0, 0.0)
    with pytest.raises(ValueError):
        PolylogBound(1.0, -2, 0.0)


def test_parse_bound():
    assert parse_bound("3,1,8") == PolylogBound(3.0, 1, 8.0)
    assert parse_bound(" 0 , 0 , 32 ") == PolylogBound(0.0, 0, 32.0)
    with pytest.raises(ValueError):
        parse_bound("1,2")
    with pytest.raises(ValueError):
        parse_bound("a,b,c")


def test_shifted_bound_dominates_padded_values():
    base = PolylogBound(2.0, 2, 1.0)
    pad = 16
    shifted = shifted_bound(base, pad)
    for n in range(pad, 4096, 37):
        assert shifted(n) >= base(n + pad)
