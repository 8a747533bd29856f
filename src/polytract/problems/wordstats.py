"""Occurrence counting over a fixed word lexicon, with bit-packed digests.

A corpus is plain UTF-8 text; words are its whitespace-separated tokens,
lowercase-normalized. The digest of a corpus is the vector of occurrence
counts for the m lexicon words. Each count is at most the token count n,
so a fixed width of ceil(log2(n+1)) bits per count packs the whole vector
into exactly m * ceil(log2(n+1)) bits. The self-contained instance form
prepends one byte holding that width so a decider needs nothing else;
count_digest makes it from corpus text, and a catalog keeps it per
corpus, so a corpus digested again is not read again.

A query 'p k' asks whether word p occurs at least k times. The reference
oracle pair_member answers it from lexicon_counts, one tokenize and one
tally of the whole corpus; a catalog keeps those counts per corpus, so a
corpus asked again is not read again. Answering a query from the digest
(digest_count) checks the digest's header, length and padding, then
unpacks the one count the query names.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..encoding import Instance
from ..errors import MalformedInstance

DEFAULT_LEXICON = (
    "about", "against", "among", "at", "between", "by", "during", "for",
    "from", "in", "into", "of", "on", "onto", "over", "through", "to",
    "under", "upon", "with",
)

# Filler vocabulary for synthetic corpora; deliberately disjoint from the
# default lexicon.
FILLER_WORDS = (
    "cat", "dog", "house", "dark", "light", "runs", "walks", "sleeps",
    "river", "stone", "tree", "bird", "cloud", "storm", "quiet", "loud",
    "old", "new", "small", "large", "red", "blue", "green", "grey",
    "city", "field", "road", "door", "window", "roof", "floor", "wall",
    "hand", "eye", "voice", "step", "night", "day", "rain", "snow",
)


@dataclass(frozen=True)
class Corpus:
    words: tuple[str, ...]
    lexicon: tuple[str, ...]


def corpus_from_text(text: Instance, lexicon=DEFAULT_LEXICON) -> Corpus:
    try:
        decoded = text.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedInstance("corpus is not valid UTF-8") from None
    return Corpus(tuple(decoded.lower().split()), tuple(lexicon))


def preposition_digest(corpus: Corpus) -> tuple[int, ...]:
    """Occurrence count of every lexicon word, in lexicon order."""
    counts = Counter(corpus.words)
    return tuple(counts.get(word, 0) for word in corpus.lexicon)


def lexicon_counts(text: Instance, lexicon=DEFAULT_LEXICON) -> tuple[int, ...] | None:
    """Occurrence count of every lexicon word in corpus `text`, in lexicon
    order, from one tokenize and one tally; None for text that is not
    UTF-8. It shares no code with corpus_from_text and preposition_digest,
    so an oracle built on it checks the digest against a second count."""
    try:
        decoded = text.decode("utf-8")
    except UnicodeDecodeError:
        return None
    tally = Counter(decoded.lower().split())
    return tuple(tally[word] for word in lexicon)


def count_digest(text: Instance, lexicon=DEFAULT_LEXICON) -> Instance:
    """The digest instance of corpus `text`: its lexicon counts packed
    behind their width byte. Text that is not UTF-8 digests as the
    empty corpus."""
    try:
        corpus = corpus_from_text(text, lexicon)
    except MalformedInstance:
        corpus = Corpus((), tuple(lexicon))
    return digest_instance(preposition_digest(corpus), len(corpus.words))


def count_width(n: int) -> int:
    """Bits needed for one count in a corpus of n tokens: ceil(log2(n+1))."""
    return n.bit_length()


def pack_counts(counts, n: int) -> tuple[bytes, int]:
    """Fixed-width packing; returns (payload, exact bit length m*width)."""
    w = count_width(n)
    total_bits = w * len(counts)
    acc = 0
    for c in counts:
        if not (0 <= c <= n):
            raise ValueError(f"count {c} outside [0, {n}]")
        acc = (acc << w) | c
    payload = acc.to_bytes((total_bits + 7) // 8, "big") if total_bits else b""
    return payload, total_bits


def digest_instance(counts, n: int) -> Instance:
    """Self-contained digest: one width byte, then the packed counts."""
    w = count_width(n)
    if w > 255:
        raise ValueError("corpus too large for a one-byte width header")
    payload, _ = pack_counts(counts, n)
    return bytes([w]) + payload


def _digest_value(data: Instance, m: int) -> tuple[int, int]:
    """(width, packed counts as one integer) of a digest instance of m
    counts, after checking its width byte, payload length and zero
    padding; raises MalformedInstance."""
    if not data:
        raise MalformedInstance("empty digest")
    w = data[0]
    total_bits = w * m
    if len(data) - 1 != (total_bits + 7) // 8:
        raise MalformedInstance("digest payload has the wrong length")
    acc = int.from_bytes(data[1:], "big")
    if acc >> total_bits:
        raise MalformedInstance("digest payload has nonzero padding bits")
    return w, acc


def parse_digest_instance(data: Instance, m: int) -> tuple[int, ...]:
    w, acc = _digest_value(data, m)
    mask = (1 << w) - 1
    return tuple(acc >> (m - 1 - i) * w & mask for i in range(m))


def digest_count(data: Instance, m: int, idx: int) -> int:
    """Count idx (0 <= idx < m) of a digest instance of m counts, after
    the checks parse_digest_instance makes; only that count is unpacked."""
    w, acc = _digest_value(data, m)
    return acc >> (m - 1 - idx) * w & ((1 << w) - 1)


def query_bytes(word: str, k: int) -> Instance:
    return f"{word} {k}".encode("utf-8")


def parse_query(q: Instance) -> tuple[str, int]:
    try:
        parts = q.decode("utf-8").split()
    except UnicodeDecodeError:
        raise MalformedInstance("query is not valid UTF-8") from None
    if len(parts) != 2:
        raise MalformedInstance("query must be '<word> <count>'")
    try:
        k = int(parts[1])
    except ValueError:
        raise MalformedInstance("query count must be an integer") from None
    if k < 0:
        raise MalformedInstance("query count must be nonnegative")
    return parts[0], k


def lexicon_query(query: Instance, lexicon=DEFAULT_LEXICON) -> tuple[int, int] | None:
    """(lexicon index of p, k) of a query 'p k'; None when the query is
    malformed or p is not a lexicon word, which no corpus counts."""
    try:
        word, k = parse_query(query)
    except MalformedInstance:
        return None
    try:
        return lexicon.index(word), k
    except ValueError:
        return None


def pair_member(data: Instance, query: Instance, lexicon=DEFAULT_LEXICON) -> bool:
    """Reference oracle: count the corpus's lexicon words and compare the
    asked word's count against the threshold."""
    asked = lexicon_query(query, lexicon)
    if asked is None:
        return False
    counts = lexicon_counts(data, lexicon)
    return counts is not None and counts[asked[0]] >= asked[1]


def random_corpus_text(
    n_tokens: int,
    rng: random.Random,
    lexicon=DEFAULT_LEXICON,
    preposition_rate: float = 0.35,
) -> Instance:
    m, f = len(lexicon), len(FILLER_WORDS)
    vocab = list(lexicon) + list(FILLER_WORDS)
    weights = [preposition_rate / m] * m + [(1 - preposition_rate) / f] * f
    words = rng.choices(vocab, weights=weights, k=n_tokens)
    return " ".join(words).encode("utf-8")
