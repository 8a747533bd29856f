"""Reductions between factored problems and between pair languages.

Two shapes are supported:

* FcrReduction: carries a factorization on each side and maps factored
  pairs of the source problem to factored pairs of the target problem so
  that restore-membership is preserved both ways.
* FReduction: maps data parts and query parts of one language of pairs
  directly into another, with no re-factorization.

compose_fcr stitches two factored reductions through the middle problem
by packing each outer factorization's two parts into a single data part
(one joining byte, so each redundancy constant rises by one) and routing
the middle hop through restore/split. transfer_witness uses the same
packing to pull a witness for the target problem back to the source.
hardness_pack wraps an externally supplied many-one map into a factored
reduction onto the search-order problem; it checks nothing itself, so a
map that breaks membership shows up in verify_fcr_reduction's iff rows.
Building such maps gate by gate is out of scope here and must be
supplied by the caller.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .encoding import (
    Instance,
    LanguageOfPairs,
    Pair,
    PolylogBound,
    ZERO_BOUND,
    pack_at,
    shifted_bound,
    split_packed,
)
from .errors import FactorizationMismatch, MalformedInstance
from .factorization import (
    CrFactorization,
    identity_factorization,
    induced_pairs,
    packed_factorization,
)
from .preprocessing import PreprocessingWitness
from .report import Report, probe


@dataclass(frozen=True)
class FcrReduction:
    name: str
    source_fact: CrFactorization
    target_fact: CrFactorization
    map_data: Callable[[Instance], Instance]
    map_query: Callable[[Instance], Instance]


@dataclass(frozen=True)
class FReduction:
    name: str
    map_data: Callable[[Instance], Instance]
    map_query: Callable[[Instance], Instance]


def _identity(x: Instance) -> Instance:
    return x


def _image(r: FcrReduction, d: Instance) -> Instance:
    """The target instance a packed source pair maps to along r. Garbage
    counts as a lone data part, so mapped membership stays well-defined
    (and false)."""
    try:
        x1, x2 = split_packed(d)
    except MalformedInstance:
        x1, x2 = d, b""
    return r.target_fact.restore(r.map_data(x1), r.map_query(x2))


def verify_fcr_reduction(
    r: FcrReduction,
    source_member: Callable[[Instance], bool],
    target_member: Callable[[Instance], bool],
    pairs: Iterable[Pair],
) -> Report:
    """Check restore-membership equivalence on both member and non-member
    pairs: verify_f_reduction over the pair languages the two
    factorizations induce."""
    return verify_f_reduction(
        FReduction(r.name, r.map_data, r.map_query),
        induced_pairs(r.source_fact, source_member, f"pairs({r.source_fact.name})"),
        induced_pairs(r.target_fact, target_member, f"pairs({r.target_fact.name})"),
        pairs,
    )


def compose_fcr(
    first: FcrReduction,
    second: FcrReduction,
    mid_member: Callable[[Instance], bool],
    probes: Sequence[Instance] = (),
) -> FcrReduction:
    """Compose two factored reductions through the middle problem.

    The first reduction lands in first.target_fact and the second starts
    from second.source_fact. They may differ, which is exactly why the
    middle hop restores a whole middle instance and re-splits it. Probe
    instances (members of the middle problem) are round-tripped through
    both; any disagreement raises FactorizationMismatch.
    """
    mid_in = second.source_fact
    for i, x in enumerate(probes):
        if not mid_member(x):
            continue
        for fact in (first.target_fact, mid_in):
            restored = fact.restore(fact.data_part(x), fact.query_part(x))
            if restored != x or not mid_member(restored):
                raise FactorizationMismatch(
                    f"middle factorization {fact.name} breaks probe {i}"
                )

    def map_data(d: Instance) -> Instance:
        mid = _image(first, d)
        return pack_at(
            second.map_data(mid_in.data_part(mid)),
            second.map_query(mid_in.query_part(mid)),
        )

    return FcrReduction(
        name=f"{first.name}*{second.name}",
        source_fact=packed_factorization(first.source_fact),
        target_fact=packed_factorization(second.target_fact),
        map_data=map_data,
        map_query=_identity,
    )


def transfer_witness(
    r: FcrReduction,
    mid_witness: PreprocessingWitness,
) -> tuple[CrFactorization, PreprocessingWitness]:
    """Pull a witness for r's target pairs back along r.

    The witness's pair language refers to r.target_fact. Returns the
    packed source factorization and a witness for its induced pair
    language.

    The new output bound is a dominating template: the packed digest is
    the old digest joined with the middle query part (the added constants),
    and scaling the log coefficients by 2**k covers a middle data part up
    to the square of the packed data's length.
    """
    new_fact = packed_factorization(r.source_fact)
    mid_fact = r.target_fact

    def preprocess(d: Instance) -> Instance:
        mid = _image(r, d)
        return pack_at(
            mid_witness.preprocess(mid_fact.data_part(mid)),
            mid_fact.query_part(mid),
        )

    inner = mid_witness.post_language

    def membership(d: Instance, q: Instance) -> bool:
        if q != b"":
            return False
        try:
            left, right = split_packed(d)
        except MalformedInstance:
            return False
        return inner.membership(left, right)

    ob, qb = mid_witness.output_bound, mid_fact.query_bound
    k = max(ob.k, qb.k)
    out_bound = PolylogBound((ob.a + qb.a) * 2 ** k, k, ob.b + qb.b + 1)
    post = LanguageOfPairs(
        name=f"post({mid_witness.name})@packed",
        membership=membership,
        short_query_bound=ZERO_BOUND,
    )
    witness = PreprocessingWitness(
        name=f"{mid_witness.name}<-{r.name}",
        preprocess=preprocess,
        post_language=post,
        output_bound=out_bound,
    )
    return new_fact, witness


def hardness_pack(
    many_one: Callable[[Instance], Instance],
    search_fact: CrFactorization,
) -> FcrReduction:
    """Wrap a many-one map into a factored reduction.

    The source side gets the trivial identity factorization, the target
    side the packed form of search_fact (redundancy + 1). Nothing is
    checked here: verify_fcr_reduction tells whether many_one carries
    members to members and non-members to non-members.
    """
    target = packed_factorization(search_fact)
    return FcrReduction(
        name=f"pack({search_fact.name})",
        source_fact=identity_factorization(),
        target_fact=target,
        map_data=lambda x: target.data_part(many_one(x)),
        map_query=_identity,
    )


def verify_f_reduction(
    r: FReduction,
    source: LanguageOfPairs,
    target: LanguageOfPairs,
    pairs: Iterable[Pair],
) -> Report:
    """Check direct pair-to-pair membership equivalence on samples."""

    def test(idx, pair):
        lhs = source.membership(pair.data, pair.query)
        rhs = target.membership(r.map_data(pair.data), r.map_query(pair.query))
        if lhs != rhs:
            return "iff", f"source {lhs} but target {rhs}"
        return None

    total, failures = probe(pairs, test)
    rep = Report(f"reduction:{r.name}")
    rep.add("iff-equivalence", not failures, measured=len(failures), bound=0,
            detail=f"{total} pairs probed")
    return rep.itemize("pair", failures)


def pullback_witness_f(
    r: FReduction,
    target_witness: PreprocessingWitness,
    growth_pad: int = 0,
) -> PreprocessingWitness:
    """Pull a witness back along a direct pair reduction.

    Preprocess through the data map; adjust the post language by the
    query map. growth_pad widens the output bound when the data map can
    enlarge its input by a bounded number of bytes.
    """
    inner = target_witness.post_language
    post = LanguageOfPairs(
        name=f"post({target_witness.name})<-{r.name}",
        membership=lambda d, q: inner.membership(d, r.map_query(q)),
        short_query_bound=inner.short_query_bound,
    )
    return PreprocessingWitness(
        name=f"{target_witness.name}<-{r.name}",
        preprocess=lambda d: target_witness.preprocess(r.map_data(d)),
        post_language=post,
        output_bound=shifted_bound(target_witness.output_bound, growth_pad),
    )
