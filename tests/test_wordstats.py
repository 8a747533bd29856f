import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from polytract import SuiteConfig, build_catalog
from polytract.errors import MalformedInstance
from polytract.preprocessing import verify_witness
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


# ------------------------------------------- count table and one-count post
#
# One catalog for every example, so later examples also meet corpora its
# count table already holds.
CAT = build_catalog(SuiteConfig())
LEXICON = ws.DEFAULT_LEXICON
M = len(LEXICON)
COUNT_MEMBER = CAT.pair_languages["wordstats-pairs"].membership
WITNESS = CAT.witnesses["wordstats-count-digest"].witness
POST = WITNESS.post_language.membership
SEPARATORS = (" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000")
NON_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80")


def _parent_post(digest: bytes, query: bytes) -> bool:
    """The post language as it was before digest_count: unpack every
    count, then decide by the asked word's; a word outside the lexicon
    is out."""
    try:
        counts = ws.parse_digest_instance(digest, M)
        word, k = ws.parse_query(query)
    except MalformedInstance:
        return False
    return word in LEXICON and counts[LEXICON.index(word)] >= k


_WORDS = st.one_of(st.sampled_from(LEXICON), st.sampled_from(ws.FILLER_WORDS),
                   st.sampled_from(("zzz", "inn", "", "ß", "\u03a3")))


@st.composite
def corpora(draw):
    """Lexicon and filler words, some in upper or mixed case, joined by
    whitespace that str.split() splits at, \\x1c-\\x1f included; some
    with a byte that is not UTF-8 spliced in."""
    words = draw(st.lists(_WORDS, max_size=40))
    text = ""
    for word in words:
        case = draw(st.integers(0, 2))
        word = (word, word.upper(), word.title())[case]
        text += word + draw(st.sampled_from(SEPARATORS))
    data = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from(NON_UTF8)) + data[pos:]
    return data


@st.composite
def queries(draw):
    """'p k' for a lexicon word in any case, an unknown word or none, with
    k negative, zero, small or large; or bytes that are no query."""
    word = draw(_WORDS)
    word = (word, word.upper())[draw(st.integers(0, 1))]
    k = draw(st.one_of(st.integers(-3, 6), st.integers(-(2**70), 2**70)))
    return draw(st.one_of(
        st.just(f"{word} {k}".encode("utf-8")),
        st.just(f"{word}\x1c{k}".encode("utf-8")),
        st.sampled_from((b"", b"in", b"in 1 2", b"in one", b"\xff 1", b"in \xff",
                         b"in 0x1", b"in +1", b"in 1.0")),
        st.binary(max_size=12)))


@st.composite
def digests(draw):
    """A width byte and a payload of about m * width bits: the right
    length with zero padding, nonzero padding bits (odd widths pad 4
    bits for 20 counts), or a byte too many or too few; width 0 and the
    empty digest among them."""
    if draw(st.integers(0, 9)) == 0:
        return b""
    w = draw(st.integers(0, 12))
    bits = w * M
    size = max(0, (bits + 7) // 8 + draw(st.sampled_from((0, 0, 0, -1, 1))))
    acc = int.from_bytes(draw(st.binary(min_size=size, max_size=size)), "big")
    if draw(st.booleans()):
        acc &= (1 << bits) - 1
    return bytes([w]) + acc.to_bytes(size, "big")


@settings(max_examples=400)
@given(corpora(), queries())
def test_count_table_membership_equals_the_oracle(text, query):
    expected = ws.pair_member(text, query, LEXICON)
    # the oracle against a token-by-token scan
    try:
        word, k = ws.parse_query(query)
        text.decode("utf-8")
    except (MalformedInstance, UnicodeDecodeError):
        assert expected is False
    else:
        assert expected is (word in LEXICON and count_word_oracle(text, word) >= k)
    assert COUNT_MEMBER(text, query) is expected
    # asked again, the answer comes from the table
    assert COUNT_MEMBER(text, query) is expected


@settings(max_examples=400)
@given(st.one_of(digests(), corpora().map(WITNESS.preprocess)), queries())
def test_one_count_post_equals_the_full_unpack(digest, query):
    assert POST(digest, query) is _parent_post(digest, query)
    try:
        counts = ws.parse_digest_instance(digest, M)
    except MalformedInstance:
        for idx in range(M):
            with pytest.raises(MalformedInstance):
                ws.digest_count(digest, M, idx)
    else:
        assert tuple(ws.digest_count(digest, M, idx) for idx in range(M)) == counts


def test_count_table_skips_what_no_corpus_answers():
    cat = build_catalog(SuiteConfig())
    member = cat.pair_languages["wordstats-pairs"].membership
    text = b"In\x1cin IN\x1dto"
    # a malformed query or a word outside the lexicon is out unhashed
    for query in (b"in -1", b"IN 1", b"zzz 1", b"\xff 1", b"in"):
        assert member(text, query) is False
    assert cat.counts == {}
    assert member(text, b"in 3") is True and member(text, b"to 2") is False
    assert member(b"in \xff", b"in 1") is False
    # one entry per corpus asked about, None for text that is not UTF-8
    assert list(cat.counts.values()) == [ws.lexicon_counts(text, LEXICON), None]


def test_corpora_that_differ_in_their_last_byte_get_their_own_entries():
    cat = build_catalog(SuiteConfig())
    member = cat.pair_languages["wordstats-pairs"].membership
    prefix = b"in " * 200
    assert member(prefix + b"in", b"in 201") is True
    assert member(prefix + b"io", b"in 201") is False
    assert member(prefix + b"io", b"in 200") is True
    assert len(cat.counts) == 2


def test_digest_count_checks_what_the_full_unpack_checks():
    digest = ws.digest_instance([3, 0, 1], 3)
    assert [ws.digest_count(digest, 3, idx) for idx in range(3)] == [3, 0, 1]
    assert ws.digest_count(b"\x00", 3, 1) == 0
    # empty, a payload for width 0, a byte short, a byte long, and
    # nonzero padding bits
    for bad in (b"", b"\x00\x00", digest[:-1], digest + b"\x00", b"\x01\xff"):
        with pytest.raises(MalformedInstance):
            ws.digest_count(bad, 3, 0)


# ------------------------------------------------------------ digest table


def _closure_digest(d: bytes) -> bytes:
    """The witness's preprocessing as the catalog built it before the
    digest table: the corpus's counts packed behind their width, the
    empty corpus's for text that is not UTF-8."""
    try:
        corpus = ws.corpus_from_text(d, LEXICON)
    except MalformedInstance:
        corpus = ws.Corpus((), LEXICON)
    counts = ws.preposition_digest(corpus)
    return ws.digest_instance(counts, len(corpus.words))


@settings(max_examples=400)
@given(st.one_of(corpora(), st.binary(max_size=64), st.just(b"")))
def test_count_digest_equals_the_closure_it_replaced(text):
    digest = ws.count_digest(text, LEXICON)
    assert digest == _closure_digest(text)
    # the counts against a token-by-token scan
    try:
        text.decode("utf-8")
    except UnicodeDecodeError:
        assert digest == b"\x00"
    else:
        assert ws.parse_digest_instance(digest, M) == tuple(
            count_word_oracle(text, word) for word in LEXICON)
    # through the shared catalog's table, first and later asks alike
    assert WITNESS.preprocess(text) == digest
    assert WITNESS.preprocess(text) == digest


def _counted_kernel(monkeypatch) -> list:
    """Make ws.count_digest append each corpus it digests to the returned
    list; a catalog built after this digests through it."""
    calls = []
    kernel = ws.count_digest

    def counted(text, lexicon=ws.DEFAULT_LEXICON):
        calls.append(text)
        return kernel(text, lexicon)

    monkeypatch.setattr(ws, "count_digest", counted)
    return calls


def test_verify_witness_digests_each_corpus_once(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    cat = build_catalog(SuiteConfig())
    entry = cat.witnesses["wordstats-count-digest"]
    pos, neg = entry.sample_pairs(3, 30)
    corpora_asked = {pair.data for pair in pos + neg}
    assert len(pos + neg) > 2 * len(corpora_asked) > 2
    for _ in range(2):
        assert verify_witness(entry.language, entry.witness, pos, neg).passed
    # N pairs over k corpora: k digests, one table entry each
    assert sorted(calls) == sorted(corpora_asked)
    assert len(cat.digests) == len(corpora_asked)
    assert {(type(key), len(key)) for key in cat.digests} == {(bytes, 16)}


def test_corpora_that_differ_in_their_last_byte_get_their_own_digests():
    cat = build_catalog(SuiteConfig())
    preprocess = cat.witnesses["wordstats-count-digest"].witness.preprocess
    prefix = b"in " * 200
    texts = (prefix + b"in", prefix + b"io", prefix + b"i\xff")
    for text in texts + texts:
        assert preprocess(text) == ws.count_digest(text, LEXICON)
    assert len(cat.digests) == 3
    assert sorted(cat.digests.values()) == sorted(ws.count_digest(t, LEXICON) for t in texts)


def test_injected_identity_preprocessing_fills_no_digest_table(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    cat = build_catalog(SuiteConfig(inject=("identity-preprocessing:wordstats-count-digest",)))
    entry = cat.witnesses["wordstats-count-digest"]
    pos, neg = entry.sample_pairs(3, 10)
    assert entry.witness.preprocess(pos[0].data) == pos[0].data
    verify_witness(entry.language, entry.witness, pos, neg)
    assert cat.digests == {} and calls == []
    # the oracle still counts through its own table
    assert cat.counts


def test_hostile_corpora_add_at_most_one_entry_each():
    cat = build_catalog(SuiteConfig())
    preprocess = cat.witnesses["wordstats-count-digest"].witness.preprocess
    rng = random.Random(33)
    specimens = [ws.random_corpus_text(rng.randrange(1, 60), rng) for _ in range(20)]
    args = []
    for _ in range(600):
        x = bytearray(rng.choice(specimens))
        for _ in range(rng.randrange(4)):
            pos = rng.randint(0, len(x))
            edit = rng.randrange(4)
            if edit == 0 and x:
                x[min(pos, len(x) - 1)] ^= 1 << rng.randrange(8)
            elif edit == 1:
                x[pos:pos] = rng.choice((b"#", b"@", b"\\", b"\xff", b"\xc3\x28", b"\x1c"))
            elif edit == 2:
                del x[pos:]
            else:
                del x[pos:pos + rng.randint(1, 4)]
        args.append(bytes(x))
    args += [bytes(rng.randrange(256) for _ in range(rng.randrange(64))) for _ in range(200)]
    seen = set()
    for x in args:
        assert type(preprocess(x)) is bytes
        seen.add(x)
        # one entry per distinct corpus asked so far
        assert len(cat.digests) == len(seen)
    assert len(seen) < len(args)
