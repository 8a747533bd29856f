"""Named registry wiring the concrete problems into the generic machinery.

Everything the CLI can address by name is built here from a configuration
object: membership oracles, factored languages, preprocessing witnesses,
and reductions. Names describe what each entry does:

  problems      bds, qbds, cvp, wordstats
  factored      bds-all-data, qbds-all-data, qbds-absorb, cvp-all-data
  witnesses     bds-verdict-bit, cvp-verdict-bit, wordstats-count-digest
  reductions    bds-identity, qbds-identity, qbds-to-bds (factored);
                cvp-identity, cvp-double-negation (pair-to-pair)

"all-data" factorizations put the whole instance in the data part with an
empty query. "qbds-absorb" drops the single joining '#' of a data#query
instance instead, which is why its redundancy constant is -1: the two
parts together are one byte shorter than the instance.

Every bds and qbds membership the catalog hands out, and so every check
built on one, decides through the catalog's verdict table
(Catalog.block_verdict): each (graph block, query) pair is decided once
per catalog, whichever form of the instance asks. Likewise the
wordstats-pairs membership counts each corpus once per catalog, into its
count table (Catalog.counts), and the wordstats-count-digest
preprocessing digests each corpus once per catalog, into its digest
table (Catalog.digests).

The entries close over the tables, never over the catalog, so a catalog
makes no reference cycle and is freed as soon as its last user lets go.
"""
from __future__ import annotations

import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from .encoding import (
    Instance,
    LanguageOfPairs,
    Pair,
    PolylogBound,
    ZERO_BOUND,
    decode_pair,
    encode_pair,
)
from .errors import ConfigError, MalformedInstance, UnknownProblem
from .factorization import CrFactorization, FactoredLanguage, identity_factorization
from .preprocessing import PreprocessingWitness
from .reductions import FcrReduction, FReduction
from .problems import bds, cvp, wordstats

DEFAULT_BOUNDS = {
    "bds-verdict-bit": PolylogBound(0.0, 0, 1.0),
    "cvp-verdict-bit": PolylogBound(0.0, 0, 1.0),
    "wordstats-count-digest": PolylogBound(3.0, 1, 8.0),
    "qbds-query": PolylogBound(0.0, 0, 32.0),
    "wordstats-query": PolylogBound(0.0, 0, 32.0),
    "cvp-query": ZERO_BOUND,
}

# The fault injections a config may name: each swaps one witness's
# preprocessing for the identity map and keeps its declared bound.
INJECTIONS = tuple(
    f"identity-preprocessing:{name}"
    for name in ("bds-verdict-bit", "cvp-verdict-bit", "wordstats-count-digest")
)


def qbds_instance_bytes(g: bds.NumberedGraph, u: int, v: int) -> Instance:
    """Graph block and query joined by '#'; payloads never need escaping."""
    return encode_pair(Pair(bds.graph_to_bytes(g), f"{u} {v}".encode("ascii")))


def as_qbds(x: Instance) -> Instance:
    """Join a bds instance's graph block and query tail with '#'; bytes
    that do not split come back unchanged."""
    try:
        block, tail = bds.split_block_tail(x)
    except MalformedInstance:
        return x
    return block + b"#" + tail


def qbds_member(y: Instance) -> bool:
    """Membership of a '#'-joined instance, decided afresh on every call;
    Catalog.qbds_verdict answers the same through a catalog's table."""
    try:
        pair = decode_pair(y)
    except MalformedInstance:
        return False
    return bds.block_member(pair.data, pair.query)


def absorb_factorization() -> CrFactorization:
    """Drop the joining '#': data part is graph block + query tail, one byte
    shorter than the instance; restore re-inserts the byte at the parse
    boundary, byte-exactly."""

    def data_part(y: Instance) -> Instance:
        try:
            pair = decode_pair(y)
        except MalformedInstance:
            return y
        return pair.data + pair.query

    return CrFactorization(
        name="qbds-absorb",
        data_part=data_part,
        query_part=lambda y: b"",
        restore=lambda d, q: as_qbds(d),
        redundancy=-1,
        query_bound=ZERO_BOUND,
    )


def one_bit_true_language() -> LanguageOfPairs:
    """Accepts exactly the pair <'1', empty>."""
    return LanguageOfPairs(
        name="one-bit-true",
        membership=lambda d, q: d == b"1" and q == b"",
        short_query_bound=ZERO_BOUND,
    )


@dataclass(frozen=True)
class ProblemEntry:
    name: str
    member: Callable[[Instance], bool]
    describe: str
    # (seed, cap, budget) -> instances for the suite's checks, members or
    # not: an exhaustive part, then the first `budget` draws of the
    # problem's substream, which the catalog keeps (Catalog.draws), in a
    # new list on every call; None for problems no check samples directly
    sample: Callable[[int, int, int], list[Instance]] | None = None


@dataclass(frozen=True)
class WitnessEntry:
    language: LanguageOfPairs
    witness: PreprocessingWitness
    # (seed, count) -> (positives, negatives); labels already oracle-true
    sample_pairs: Callable[[int, int], tuple[list[Pair], list[Pair]]]
    # (size, seed) -> instances for the digest ladder (data parts), in a
    # new list on every call; the bds rungs are catalog draws
    ladder_gen: Callable[[int, int], list[Instance]]  # (size, seed)


@dataclass(frozen=True)
class FcrEntry:
    reduction: FcrReduction
    source_member: Callable[[Instance], bool]
    target_member: Callable[[Instance], bool]


@dataclass(frozen=True)
class FEntry:
    reduction: FReduction
    source: LanguageOfPairs
    target: LanguageOfPairs
    sample_pairs: Callable[[int, int], list[Pair]]


@dataclass
class Catalog:
    problems: dict[str, ProblemEntry] = field(default_factory=dict)
    pair_languages: dict[str, LanguageOfPairs] = field(default_factory=dict)
    factored: dict[str, FactoredLanguage] = field(default_factory=dict)
    witnesses: dict[str, WitnessEntry] = field(default_factory=dict)
    fcr_reductions: dict[str, FcrEntry] = field(default_factory=dict)
    f_reductions: dict[str, FEntry] = field(default_factory=dict)
    # (witness name, size, seed) -> what the cvp or wordstats witness's
    # stage held from that ladder rung, every digest within the bound,
    # for runtime-fits; harness._HANDOFF names what is held, and
    # harness._held is its only reader
    held: dict[tuple[str, int, int], object] = field(default_factory=dict)
    # substream name -> (seed, rng, draws): the random draws samplers and
    # the bds ladder made from it for the last seed asked for, extended
    # when a larger budget is asked for; see draws(). run_suite adds the
    # bds ladder's entries its worker processes drew.
    drawn: dict[str, tuple[int, random.Random, list]] = field(default_factory=dict)
    # 16-byte digest of a (graph block, query) pair -> its
    # bds.block_member verdict; see block_verdict(). run_suite adds the
    # bds ladder rungs' entries its worker processes decided.
    verdicts: dict[bytes, bool] = field(default_factory=dict)
    # 16-byte blake2b digest of a corpus -> its wordstats.lexicon_counts
    # over the catalog's lexicon, None for text that is not UTF-8; the
    # wordstats-pairs membership fills it (_count_member).
    counts: dict[bytes, tuple[int, ...] | None] = field(default_factory=dict)
    # the same key -> its wordstats.count_digest over the catalog's
    # lexicon; the wordstats-count-digest preprocessing fills it.
    digests: dict[bytes, Instance] = field(default_factory=dict)

    def __post_init__(self):
        # The table functions, bound to the tables alone: the entries
        # built on them then hold no reference to the catalog. The
        # tables are only ever updated in place, never replaced.
        self.draws = partial(_draws, self.drawn)
        self.block_verdict = partial(_block_verdict, self.verdicts)
        self.bds_verdict = partial(_bds_verdict, self.verdicts)
        self.qbds_verdict = partial(_qbds_verdict, self.verdicts)

    def problem(self, name: str) -> ProblemEntry:
        return _lookup(self.problems, name, "problem")

    def sampler(self, name: str) -> Callable[[int, int, int], list[Instance]]:
        """Sampler of the problem an entry is named after: every factored
        language and reduction name starts with its source problem, so
        'qbds-absorb' samples qbds instances."""
        return self.problem(name.split("-", 1)[0]).sample


# ------------------------------------------------------------------ tables
#
# A catalog's draws, bds_verdict, qbds_verdict and block_verdict are these
# functions bound to its tables.


def _draws(drawn: dict, stream: str, seed: int, budget: int, draw) -> list:
    """The first `budget` values of draw(rng) on the `stream` substream
    of `seed`, as a new list. Only the last seed's draws are kept, and
    they are extended only when a larger budget is asked for, so every
    reader gets the same bytes in any order, and an entry drawn in a
    forked copy of a catalog goes on as one drawn in the catalog."""
    kept = drawn.get(stream)
    if kept is None or kept[0] != seed:
        kept = drawn[stream] = seed, random.Random(f"{seed}:{stream}"), []
    _, rng, values = kept
    while len(values) < budget:
        values.append(draw(rng))
    return values[:budget]


def _block_verdict(verdicts: dict, block: bytes, query: bytes) -> bool:
    """bds.block_member(block, query), decided once per table."""
    key = _pair_key(len(block), block, query)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = bds.block_member(block, query)
    return verdict


def _bds_verdict(verdicts: dict, x: Instance) -> bool:
    """bds.bds_member(x) through the table. The pair is x's graph block
    and query tail, so x shares its entry with as_qbds(x); bytes that do
    not split are out, with no entry. x's header is read once: its
    block's end keys the pair and its bounds go on to the decide."""
    try:
        bounds = bds.block_bounds(x)
    except MalformedInstance:
        return False
    key = _pair_key(bounds[3], x)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = bds.block_member(x, None, bounds)
    return verdict


def _qbds_verdict(verdicts: dict, y: Instance) -> bool:
    """qbds_member(y) through the table."""
    try:
        pair = decode_pair(y)
    except MalformedInstance:
        return False
    return _block_verdict(verdicts, pair.data, pair.query)


def _count_member(counts: dict, lexicon: tuple[str, ...], text: Instance,
                  query: Instance) -> bool:
    """wordstats.pair_member(text, query, lexicon) through the count
    table. The query is read first, so a malformed query or a word
    outside the lexicon is out before the corpus is hashed; a corpus is
    counted on its first in-lexicon query and read from the table after."""
    asked = wordstats.lexicon_query(query, lexicon)
    if asked is None:
        return False
    tally = _per_corpus(counts, wordstats.lexicon_counts, lexicon, text)
    return tally is not None and tally[asked[0]] >= asked[1]


def _per_corpus(table: dict, make, lexicon: tuple[str, ...], text: Instance):
    """make(text, lexicon), made once per table: the table is keyed by
    the 16-byte blake2b digest of the corpus, so it holds no corpus
    bytes."""
    key = hashlib.blake2b(text, digest_size=16).digest()
    try:
        return table[key]
    except KeyError:
        value = table[key] = make(text, lexicon)
        return value


def _pair_key(block_len: int, data: bytes, query: bytes = b"") -> bytes:
    """Table key of the (graph block, query) pair data[:block_len],
    data[block_len:] + query: the blake2b digest of the block's length
    and the pair's bytes, so the table holds no instance bytes and no
    entry grows with the graph."""
    h = hashlib.blake2b(block_len.to_bytes(8, "big"), digest_size=16)
    h.update(data)
    h.update(query)
    return h.digest()


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise UnknownProblem(f"unknown {what} {name!r}; known: {known}") from None


# ---------------------------------------------------------------- builders


def _bds_sampler(draws):
    def draw(rng: random.Random) -> Instance:
        return bds.random_instance(rng.randrange(5, 31), rng)

    def instances(seed: int, cap: int, budget: int) -> list[Instance]:
        """Exhaustive small instances plus random larger ones, members or not."""
        out = list(bds.enumerate_instances(cap))
        out += draws("bds-random", seed, budget, draw)
        # A few malformed strays keep the oracles honest about totality.
        out.extend([b"", b"not a graph", b"2 1\n1 2\n", b"1 0\n1\n0 0"])
        return out

    return instances


def _small_circuit(rng: random.Random) -> Instance:
    """A random circuit of 2-13 nodes."""
    return cvp.circuit_to_bytes(cvp.random_circuit(rng.randrange(2, 14), rng))


def _cvp_sampler(draws, stream: str):
    def instances(seed: int, cap: int, budget: int) -> list[Instance]:
        """Every one-gate circuit plus random small ones; cap is unused,
        the exhaustive part is fixed."""
        out = [cvp.circuit_to_bytes(c) for c in cvp.enumerate_circuits(1)]
        out += draws(stream, seed, budget, _small_circuit)
        return out

    return instances


def _labeled_pairs(stream: str, draw, member, flip=None):
    """A (seed, count) -> (positives, negatives) sampler of <x, empty>
    pairs. It draws x from the `stream` substream and sorts it by `member`
    until both sides hold `count`; once the positives are full, `flip`
    (if given) turns a drawn member into a negative."""

    def sample_pairs(seed: int, count: int):
        rng = random.Random(f"{seed}:{stream}")
        pos, neg = [], []
        while len(pos) < count or len(neg) < count:
            x = draw(rng)
            if member(x):
                if len(pos) < count:
                    pos.append(Pair(x, b""))
                elif flip is not None and len(neg) < count:
                    neg.append(Pair(flip(x), b""))
            elif len(neg) < count:
                neg.append(Pair(x, b""))
        return pos, neg

    return sample_pairs


def _build_problems(cat: Catalog) -> None:
    sample_bds = _bds_sampler(cat.draws)

    def sample_qbds(seed: int, cap: int, budget: int) -> list[Instance]:
        return [as_qbds(x) for x in sample_bds(seed, cap, budget)]

    cat.problems["bds"] = ProblemEntry(
        "bds", cat.bds_verdict,
        "numbered graph with a visit-order query riding behind the block",
        sample_bds)
    cat.problems["qbds"] = ProblemEntry(
        "qbds", cat.qbds_verdict,
        "the same instances with the query joined by '#'",
        sample_qbds)
    cat.problems["cvp"] = ProblemEntry(
        "cvp", cvp.cvp_member,
        "boolean circuit accepted iff it evaluates to true",
        _cvp_sampler(cat.draws, "cvp-instances"))
    cat.problems["wordstats"] = ProblemEntry(
        "wordstats", lambda x: False,
        "corpus text; meaningful only as the data part of count queries")


def _build_factored(cat: Catalog, config) -> None:
    bounds = config.bounds
    cat.factored["bds-all-data"] = FactoredLanguage(
        "bds-all-data", cat.bds_verdict, identity_factorization("bds-all-data"))
    cat.factored["qbds-all-data"] = FactoredLanguage(
        "qbds-all-data", cat.qbds_verdict, identity_factorization("qbds-all-data"))
    cat.factored["qbds-absorb"] = FactoredLanguage(
        "qbds-absorb", cat.qbds_verdict, absorb_factorization())
    cat.factored["cvp-all-data"] = FactoredLanguage(
        "cvp-all-data", cvp.cvp_member, identity_factorization("cvp-all-data"))

    lexicon = config.lexicon
    cat.pair_languages["qbds-pairs"] = LanguageOfPairs(
        name="qbds-pairs",
        membership=cat.block_verdict,
        short_query_bound=bounds["qbds-query"],
    )
    cat.pair_languages["cvp-pairs"] = LanguageOfPairs(
        name="cvp-pairs",
        membership=lambda d, q: q == b"" and cvp.cvp_member(d),
        short_query_bound=bounds["cvp-query"],
    )
    cat.pair_languages["wordstats-pairs"] = LanguageOfPairs(
        name="wordstats-pairs",
        membership=partial(_count_member, cat.counts, lexicon),
        short_query_bound=bounds["wordstats-query"],
    )
    for name in ("bds-all-data", "qbds-absorb", "cvp-all-data"):
        fl = cat.factored[name]
        cat.pair_languages[f"pairs({name})"] = fl.induced_pairs_language()


def _identity(z: Instance) -> Instance:
    return z


def _verdict_bit(member: Callable[[Instance], bool]) -> Callable[[Instance], Instance]:
    """The preprocessing whose digest is the one-byte verdict of `member`."""
    return lambda x: b"1" if member(x) else b"0"


def _build_witnesses(cat: Catalog, config) -> None:
    injected = set(getattr(config, "inject", ()))
    unknown = injected.difference(INJECTIONS)
    if unknown:
        raise ConfigError(f"unknown inject entry {min(unknown)!r}; "
                          f"known: {', '.join(sorted(INJECTIONS))}")

    def add(name: str, language: LanguageOfPairs, preprocess, post_language: LanguageOfPairs,
            sample_pairs, ladder_gen) -> None:
        """Register witness `name` with its declared bound. This is the
        one place the identity-preprocessing:<name> injection swaps the
        preprocessing for the identity."""
        if f"identity-preprocessing:{name}" in injected:
            preprocess = _identity
        witness = PreprocessingWitness(name, preprocess, post_language, config.bounds[name])
        cat.witnesses[name] = WitnessEntry(language, witness, sample_pairs, ladder_gen)

    draws = cat.draws  # so bds_ladder holds the draws table, not the catalog

    def bds_ladder(size: int, seed: int) -> list[Instance]:
        """Two sparse instances of `size` nodes from the
        bds-ladder:{size} substream, kept by the catalog, so both stages
        that read the rung take the same bytes without drawing them
        again."""
        return draws(f"bds-ladder:{size}", seed, 2,
                     lambda rng: bds.random_sparse_instance(size, rng))

    add("bds-verdict-bit", cat.pair_languages["pairs(bds-all-data)"],
        _verdict_bit(cat.bds_verdict), one_bit_true_language(),
        _labeled_pairs(
            "bds-witness",
            lambda rng: bds.random_instance(rng.randrange(2, 16), rng),
            cat.bds_verdict, flip=bds.swap_query),
        bds_ladder)

    def cvp_ladder(size: int, seed: int) -> list[Instance]:
        # The digest here is a single verdict byte, and the post check is
        # cheaper on one byte value than the other. Pairing the circuit
        # with its negated sibling keeps the verdict mix at exactly half
        # and half on every rung, so branch cost cannot pose as growth.
        rng = random.Random(f"{seed}:cvp-ladder:{size}")
        c = cvp.random_circuit(size, rng)
        text = cvp.circuit_to_bytes(c)
        return [text, cvp.negate_output_bytes(c, text)]

    add("cvp-verdict-bit", cat.pair_languages["cvp-pairs"],
        _verdict_bit(cvp.cvp_member), one_bit_true_language(),
        _labeled_pairs("cvp-witness", _small_circuit, cvp.cvp_member),
        cvp_ladder)

    # Count-vector digest for word statistics, made once per corpus.
    lexicon = config.lexicon
    m = len(lexicon)
    count_digest = partial(_per_corpus, cat.digests, wordstats.count_digest, lexicon)

    def digest_pair_member(d: Instance, q: Instance) -> bool:
        """The query's word count, unpacked alone from the digest, against
        its threshold."""
        asked = wordstats.lexicon_query(q, lexicon)
        if asked is None:
            return False
        try:
            return wordstats.digest_count(d, m, asked[0]) >= asked[1]
        except MalformedInstance:
            return False

    # A query word outside the lexicon, which no corpus counts.
    probe = "zzz"
    while probe in lexicon:
        probe += "z"

    def ws_samples(seed: int, count: int):
        rng = random.Random(f"{seed}:wordstats-witness")
        pos, neg = [], []
        per_corpus = 8
        while len(pos) < count or len(neg) < count:
            text = wordstats.random_corpus_text(rng.randrange(20, 2000), rng, lexicon)
            corpus = wordstats.corpus_from_text(text, lexicon)
            counts = wordstats.preposition_digest(corpus)
            for _ in range(per_corpus):
                word = rng.choice(lexicon)
                have = counts[lexicon.index(word)]
                if rng.random() < 0.5 and len(pos) < count:
                    pos.append(Pair(text, wordstats.query_bytes(word, rng.randint(0, have))))
                elif len(neg) < count:
                    if rng.random() < 0.2:
                        neg.append(Pair(text, wordstats.query_bytes(probe, 1)))
                    else:
                        neg.append(Pair(
                            text,
                            wordstats.query_bytes(word, have + 1 + rng.randrange(3))))
        return pos, neg

    def ws_ladder(size: int, seed: int) -> list[Instance]:
        rng = random.Random(f"{seed}:wordstats-ladder:{size}")
        return [wordstats.random_corpus_text(size, rng, lexicon) for _ in range(2)]

    add("wordstats-count-digest", cat.pair_languages["wordstats-pairs"], count_digest,
        LanguageOfPairs("counts-at-least", digest_pair_member, config.bounds["wordstats-query"]),
        ws_samples, ws_ladder)


def _build_reductions(cat: Catalog) -> None:
    # Both maps of every factored reduction are identities. qbds-to-bds
    # re-splits: the absorbed data part of a joined instance is literally
    # a visit-order instance.
    for name, source, target in (("bds-identity", "bds-all-data", "bds-all-data"),
                                 ("qbds-identity", "qbds-absorb", "qbds-absorb"),
                                 ("qbds-to-bds", "qbds-absorb", "bds-all-data")):
        src, dst = cat.factored[source], cat.factored[target]
        cat.fcr_reductions[name] = FcrEntry(
            reduction=FcrReduction(name, src.fact, dst.fact, _identity, _identity),
            source_member=src.base,
            target_member=dst.base,
        )

    # Pair-to-pair reductions over circuit evaluation.
    cvp_lang = cat.pair_languages["cvp-pairs"]

    def doubled(d: Instance) -> Instance:
        try:
            return cvp.circuit_to_bytes(cvp.double_negate_output(cvp.parse_circuit(d)))
        except MalformedInstance:
            return d

    circuits = _cvp_sampler(cat.draws, "cvp-pairs")

    def cvp_pairs(seed: int, budget: int) -> list[Pair]:
        out = [Pair(x, b"") for x in circuits(seed, 0, budget)]
        out.append(Pair(b"junk", b""))
        out.append(Pair(b"", b"stray-query"))
        return out

    cat.f_reductions["cvp-identity"] = FEntry(
        reduction=FReduction("cvp-identity", _identity, _identity),
        source=cvp_lang, target=cvp_lang,
        sample_pairs=cvp_pairs,
    )
    cat.f_reductions["cvp-double-negation"] = FEntry(
        reduction=FReduction("cvp-double-negation", doubled, _identity),
        source=cvp_lang, target=cvp_lang,
        sample_pairs=cvp_pairs,
    )


def build_catalog(config) -> Catalog:
    cat = Catalog()
    _build_problems(cat)
    _build_factored(cat, config)
    _build_witnesses(cat, config)
    _build_reductions(cat)
    return cat
