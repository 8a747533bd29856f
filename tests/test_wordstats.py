import random
import sys

import pytest
from hypothesis import given, strategies as st

from polytract.errors import MalformedInstance, UnknownPreposition
from polytract.problems import wordstats as ws

from oracles import count_word_oracle


def unpack(payload: bytes, n: int, m: int) -> tuple[int, ...]:
    """Counts packed for an n-token corpus, read back through the digest parser."""
    return ws.parse_digest_instance(bytes([ws.count_width(n)]) + payload, m)


def test_digest_counts_pinned():
    corpus = ws.corpus_from_text(b"in the house in the dark")
    digest = ws.preposition_digest(corpus)
    lex = corpus.lexicon
    assert digest[lex.index("in")] == 2
    assert digest[lex.index("on")] == 0
    assert sum(digest) == 2


def test_digest_matches_scan_oracle():
    rng = random.Random(17)
    for _ in range(50):
        text = ws.random_corpus_text(rng.randrange(1, 400), rng)
        corpus = ws.corpus_from_text(text)
        digest = ws.preposition_digest(corpus)
        for i, word in enumerate(corpus.lexicon):
            assert digest[i] == count_word_oracle(text, word)


def test_case_folding():
    corpus = ws.corpus_from_text(b"In IN iN in")
    assert ws.preposition_digest(corpus)[corpus.lexicon.index("in")] == 4


# Every character str.split() splits at, and words that end in a Greek
# capital sigma, whose lowercase form depends on the letter after it.
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
SIGMA_WORDS = ["\u03a3", "\u039f\u0394\u039f\u03a3", "A\u03a3", "\u03a3\u03a3"]


def _per_token(text: str) -> tuple[str, ...]:
    return tuple(w.lower() for w in text.split())


def test_sigma_next_to_each_whitespace_character():
    for space in WHITESPACE:
        for word in SIGMA_WORDS:
            for text in (word + space + "B", "B" + space + word, word + space + word):
                corpus = ws.corpus_from_text(text.encode("utf-8"))
                assert corpus.words == _per_token(text), (hex(ord(space)), text)


@given(st.lists(st.one_of(st.text(), st.sampled_from(WHITESPACE),
                          st.sampled_from(SIGMA_WORDS))))
def test_whole_text_lowering_equals_per_token_lowering(parts):
    text = "".join(parts)
    assert ws.corpus_from_text(text.encode("utf-8")).words == _per_token(text)


def test_count_width():
    assert ws.count_width(0) == 0
    assert ws.count_width(1) == 1
    assert ws.count_width(1023) == 10
    assert ws.count_width(1024) == 11


def test_pack_counts_exact_bits():
    values = [1023, 0, 512, 7, 1]
    payload, bits = ws.pack_counts(values, 1023)
    assert bits == 5 * 10 == 50
    assert len(payload) == 7  # ceil(50 / 8)
    assert unpack(payload, 1023, 5) == tuple(values)


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        ws.pack_counts([4], 3)
    with pytest.raises(ValueError):
        ws.pack_counts([-1], 3)


def test_unpack_rejects_bad_payloads():
    payload, _ = ws.pack_counts([3, 1], 3)
    with pytest.raises(MalformedInstance):
        unpack(payload + b"x", 3, 2)
    with pytest.raises(MalformedInstance):
        unpack(b"\xff", 3, 2)  # nonzero padding bits


def test_pack_roundtrip_random():
    rng = random.Random(29)
    for _ in range(500):
        n = rng.randrange(0, 5000)
        m = rng.randrange(1, 25)
        values = [rng.randrange(0, n + 1) for _ in range(m)]
        payload, bits = ws.pack_counts(values, n)
        assert bits == m * ws.count_width(n)
        assert unpack(payload, n, m) == tuple(values)


def test_digest_instance_roundtrip():
    corpus = ws.corpus_from_text(b"by the river by the sea")
    digest = ws.preposition_digest(corpus)
    n = len(corpus.words)
    inst = ws.digest_instance(digest, n)
    assert inst[0] == ws.count_width(n)
    assert ws.parse_digest_instance(inst, len(corpus.lexicon)) == digest


def test_query_text_roundtrip():
    assert ws.parse_query(ws.query_bytes("under", 3)) == ("under", 3)
    with pytest.raises(MalformedInstance):
        ws.parse_query(b"under")
    with pytest.raises(MalformedInstance):
        ws.parse_query(b"under -1")
    with pytest.raises(MalformedInstance):
        ws.parse_query(b"under three")


def test_decide_unknown_word():
    corpus = ws.corpus_from_text(b"at noon")
    digest = ws.preposition_digest(corpus)
    assert ws.preposition_decide(digest, corpus.lexicon, "at", 1)
    with pytest.raises(UnknownPreposition):
        ws.preposition_decide(digest, corpus.lexicon, "zebra", 1)


def test_pair_member_total():
    text = b"from dawn to dusk from dusk to dawn"
    assert ws.pair_member(text, ws.query_bytes("from", 2)) is True
    assert ws.pair_member(text, ws.query_bytes("from", 3)) is False
    assert ws.pair_member(text, ws.query_bytes("zebra", 1)) is False
    assert ws.pair_member(b"\xff\xfe", ws.query_bytes("to", 1)) is False
    assert ws.pair_member(text, b"not a query") is False
    # k = 0 holds for any lexicon word, even an absent one
    assert ws.pair_member(text, ws.query_bytes("onto", 0)) is True


def test_non_utf8_query_is_rejected():
    from polytract import SuiteConfig, build_catalog

    with pytest.raises(MalformedInstance):
        ws.parse_query(b"\xff 1")
    assert ws.pair_member(b"in in", b"\xff 1") is False
    witness = build_catalog(SuiteConfig()).witnesses["wordstats-count-digest"].witness
    digest = witness.preprocess(b"in in")
    assert witness.post_language.membership(digest, b"in 1") is True
    assert witness.post_language.membership(digest, b"\xff 1") is False


def test_random_corpus_rate():
    rng = random.Random(41)
    text = ws.random_corpus_text(20_000, rng, preposition_rate=0.35)
    corpus = ws.corpus_from_text(text)
    hits = sum(ws.preposition_digest(corpus))
    assert 0.30 < hits / 20_000 < 0.40
