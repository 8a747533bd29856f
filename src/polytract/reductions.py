"""Reductions between factored problems and between pair languages.

Two shapes are supported:

* FcrReduction: carries a factorization on each side and maps factored
  pairs of the source problem to factored pairs of the target problem so
  that restore-membership is preserved both ways.
* FReduction: maps data parts and query parts of one language of pairs
  directly into another, with no re-factorization.

compose_fcr stitches two factored reductions through an explicit middle
problem by packing each outer factorization's two parts into a single
data part (one joining byte, so each redundancy constant rises by one)
and routing the middle hop through restore/split. transfer_witness uses
the same packing to pull a witness for the target problem back to the
source. hardness_pack wraps an externally supplied membership-preserving
map into a factored reduction onto the search-order problem; building
such maps gate by gate is out of scope here and must be supplied by the
caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .encoding import (
    Instance,
    LanguageOfPairs,
    Pair,
    PolylogBound,
    ZERO_BOUND,
    pack_at,
    split_packed,
)
from .errors import (
    FactorizationMismatch,
    InvalidManyOneMap,
    MalformedInstance,
)
from .factorization import (
    CrFactorization,
    identity_factorization,
    induced_pairs,
    packed_factorization,
)
from .preprocessing import PreprocessingWitness
from .report import Report


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


def _split_or_whole(z: Instance) -> tuple[Instance, Instance]:
    # Total fallback for packed values: garbage is treated as a lone
    # data part so mapped membership stays well-defined (and false).
    try:
        return split_packed(z)
    except MalformedInstance:
        return z, b""


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
    mid_facts: tuple[CrFactorization, CrFactorization],
    mid_member: Callable[[Instance], bool],
    probes: Sequence[Instance] = (),
) -> FcrReduction:
    """Compose two factored reductions through an explicit middle problem.

    mid_facts must name the middle factorizations explicitly: the one the
    first reduction lands in and the one the second starts from. They may
    differ, which is exactly why the middle hop restores a whole middle
    instance and re-splits it. Probe instances (members of the middle
    problem) are round-tripped through both; any disagreement raises
    FactorizationMismatch.
    """
    mid_out, mid_in = mid_facts
    if mid_out is not first.target_fact:
        raise FactorizationMismatch(
            "first middle factorization is not the one the first reduction targets"
        )
    if mid_in is not second.source_fact:
        raise FactorizationMismatch(
            "second middle factorization is not the one the second reduction uses"
        )
    for i, x in enumerate(probes):
        if not mid_member(x):
            continue
        for fact in (mid_out, mid_in):
            restored = fact.restore(fact.data_part(x), fact.query_part(x))
            if restored != x or not mid_member(restored):
                raise FactorizationMismatch(
                    f"middle factorization {fact.name} breaks probe {i}"
                )

    def map_data(d: Instance) -> Instance:
        x1, x2 = _split_or_whole(d)
        mid = mid_out.restore(first.map_data(x1), first.map_query(x2))
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
    mid_fact: CrFactorization,
) -> tuple[CrFactorization, PreprocessingWitness]:
    """Pull a target-side witness back along a factored reduction.

    mid_fact is the factorization the witness's pair language refers to
    (usually, but not necessarily, r.target_fact). Returns the packed
    source factorization and a witness for its induced pair language.

    The new output bound is a dominating template: the packed digest is
    the old digest joined with the middle query part (the added constants),
    and scaling the log coefficients by 2**k covers a middle data part up
    to the square of the packed data's length.
    """
    new_fact = packed_factorization(r.source_fact)

    def preprocess(d: Instance) -> Instance:
        x1, x2 = _split_or_whole(d)
        mid = r.target_fact.restore(r.map_data(x1), r.map_query(x2))
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
    problem_member: Callable[[Instance], bool],
    many_one: Callable[[Instance], Instance],
    search_fact: CrFactorization,
    search_member: Callable[[Instance], bool],
    samples: Sequence[Instance] = (),
) -> FcrReduction:
    """Wrap a membership-preserving map into a factored reduction.

    many_one must carry members to members and non-members to
    non-members; that is spot-checked on the given samples against both
    oracles and InvalidManyOneMap raised on the first disagreement. The
    source side gets the trivial identity factorization, the target side
    the packed form of search_fact (redundancy + 1).
    """
    for i, x in enumerate(samples):
        if problem_member(x) != search_member(many_one(x)):
            raise InvalidManyOneMap(
                f"probe {i}: map does not preserve membership"
            )

    def map_data(x: Instance) -> Instance:
        y = many_one(x)
        return pack_at(search_fact.data_part(y), search_fact.query_part(y))

    return FcrReduction(
        name=f"pack({search_fact.name})",
        source_fact=identity_factorization(),
        target_fact=packed_factorization(search_fact),
        map_data=map_data,
        map_query=_identity,
    )


def verify_f_reduction(
    r: FReduction,
    source: LanguageOfPairs,
    target: LanguageOfPairs,
    pairs: Iterable[Pair],
) -> Report:
    """Check direct pair-to-pair membership equivalence on samples."""
    rep = Report(f"reduction:{r.name}")
    failures = []
    total = 0
    for idx, pair in enumerate(pairs):
        total += 1
        lhs = source.membership(pair.data, pair.query)
        rhs = target.membership(r.map_data(pair.data), r.map_query(pair.query))
        if lhs != rhs:
            failures.append((idx, "iff", f"source {lhs} but target {rhs}"))
    rep.add("iff-equivalence", not failures, measured=len(failures), bound=0,
            detail=f"{total} pairs probed")
    rep.itemize("pair", failures)
    return rep


def compose_f(first: FReduction, second: FReduction) -> FReduction:
    """Plain function composition; no packing is needed for this shape."""
    return FReduction(
        name=f"{first.name}*{second.name}",
        map_data=lambda d: second.map_data(first.map_data(d)),
        map_query=lambda q: second.map_query(first.map_query(q)),
    )


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
    from .encoding import shifted_bound

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
