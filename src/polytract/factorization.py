"""Constant-redundancy factorizations of decision problems.

A factorization splits every instance x of a language L into a data part
and a short query part such that

  (1) restore(data_part(x), query_part(x)) == x,
  (2) |data_part(x)| + |query_part(x)| <= |x| + redundancy, and
  (3) |query_part(x)| <= query_bound(|data_part(x)|).

All three functions must be total on byte strings; correctness is only
required on members of L. The induced language of pairs treats a pair as
a member iff restoring it lands in L.
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
    split_packed,
)
from .errors import MalformedInstance, NonMemberSample
from .report import Report, probe


@dataclass(frozen=True)
class CrFactorization:
    name: str
    data_part: Callable[[Instance], Instance]
    query_part: Callable[[Instance], Instance]
    restore: Callable[[Instance, Instance], Instance]
    redundancy: int
    query_bound: PolylogBound


def apply_factorization(fact: CrFactorization, x: Instance) -> Pair:
    return Pair(fact.data_part(x), fact.query_part(x))


@dataclass(frozen=True)
class FactoredLanguage:
    """A membership oracle for L together with a factorization of it."""

    name: str
    base: Callable[[Instance], bool]
    fact: CrFactorization

    def induced_pairs_language(self) -> LanguageOfPairs:
        return induced_pairs(self.fact, self.base, f"pairs({self.name})")


def induced_pairs(
    fact: CrFactorization, member: Callable[[Instance], bool], name: str
) -> LanguageOfPairs:
    """The pairs whose restore is a member, with the factorization's query bound."""
    return LanguageOfPairs(
        name=name,
        membership=lambda d, q: member(fact.restore(d, q)),
        short_query_bound=fact.query_bound,
    )


def identity_factorization(name: str = "identity") -> CrFactorization:
    """Everything goes into the data part; the query part is empty."""
    return CrFactorization(
        name=name,
        data_part=lambda x: x,
        query_part=lambda x: b"",
        restore=lambda d, q: d,
        redundancy=0,
        query_bound=ZERO_BOUND,
    )


def packed_factorization(fact: CrFactorization) -> CrFactorization:
    """Fold a factorization's two parts into a single packed data part.

    The packed variant splits nothing: the whole pair rides in the data
    part and the query part is empty, at the cost of one extra joining
    byte, so the redundancy constant rises by exactly one.
    """

    def data_part(x: Instance) -> Instance:
        return pack_at(fact.data_part(x), fact.query_part(x))

    def restore(d: Instance, q: Instance) -> Instance:
        try:
            left, right = split_packed(d)
        except MalformedInstance:
            return d
        return fact.restore(left, right)

    return CrFactorization(
        name=f"packed({fact.name})",
        data_part=data_part,
        query_part=lambda x: b"",
        restore=restore,
        redundancy=fact.redundancy + 1,
        query_bound=ZERO_BOUND,
    )


def verify_factorization(fl: FactoredLanguage, samples: Sequence[Instance]) -> Report:
    """Check conditions (1)-(3) on member samples.

    Every sample must be a member of the base language (NonMemberSample
    otherwise). Failing samples are itemized with the first violated
    condition.
    """
    fact = fl.fact
    slacks: list[int] = []
    queries: list[int] = []

    def test(idx, x):
        if not fl.base(x):
            raise NonMemberSample(f"sample {idx} is not a member of {fl.name}")
        d = fact.data_part(x)
        q = fact.query_part(x)
        if fact.restore(d, q) != x:
            return "restore", "restore(parts) != x"
        slack = len(d) + len(q) - len(x)
        slacks.append(slack)
        if slack > fact.redundancy:
            return "redundancy", f"slack {slack} > {fact.redundancy}"
        limit = fact.query_bound(len(d))
        queries.append(len(q))
        if len(q) > limit:
            return "query-bound", f"|q|={len(q)} > {limit:.2f}"
        return None

    total, failures = probe(samples, test)
    failed = [condition for _, condition, _ in failures]
    bad_restores = failed.count("restore")
    lo, hi = (min(slacks), max(slacks)) if slacks else (None, None)
    rep = Report(f"factorization:{fl.name}")
    rep.add("restore-roundtrip", not bad_restores, measured=bad_restores, bound=0,
            detail=f"{total} member samples")
    rep.add("redundancy", "redundancy" not in failed, measured=hi, bound=fact.redundancy,
            detail=f"observed slack in [{lo}, {hi}]")
    rep.add("query-bound", "query-bound" not in failed,
            measured=max(queries) if queries else None, bound=fact.query_bound.describe())
    return rep.itemize("sample", failures)


def check_prop1(fl: FactoredLanguage, samples: Sequence[Instance]) -> Report:
    """Check that the query part is short relative to the whole instance.

    The limit is query_bound(|x| + redundancy), which dominates
    query_bound(|data_part(x)|) whenever conditions (2) and (3) hold,
    because the bound template is monotone.
    """
    fact = fl.fact
    queries: list[int] = []

    def test(idx, x):
        if not fl.base(x):
            raise NonMemberSample(f"sample {idx} is not a member of {fl.name}")
        q = fact.query_part(x)
        queries.append(len(q))
        limit = fact.query_bound(max(len(x) + fact.redundancy, 2))
        if len(q) > limit:
            return "whole-size-bound", f"|q|={len(q)} > {limit:.2f}"
        return None

    total, failures = probe(samples, test)
    rep = Report(f"prop1:{fl.name}")
    rep.add("query-short-in-whole-size", not failures,
            measured=max(queries) if queries else None,
            bound=f"{fact.query_bound.describe()} at n+{fact.redundancy}",
            detail=f"{total} member samples")
    return rep.itemize("sample", failures)


def check_short_query(language: LanguageOfPairs, samples: Iterable[Pair]) -> Report:
    """Check |query| <= bound(|data|) on member samples.

    Raises NonMemberSample if any sample fails the membership oracle; an
    empty sample set passes vacuously.
    """
    bound = language.short_query_bound
    queries: list[int] = []

    def test(idx, pair):
        if not language.member(pair):
            raise NonMemberSample(
                f"sample {idx} is not a member of {language.name}"
            )
        queries.append(len(pair.query))
        limit = bound(len(pair.data))
        if len(pair.query) > limit:
            return "short-query", f"|Q|={len(pair.query)} > {limit:.2f}"
        return None

    total, failures = probe(samples, test)
    rep = Report(f"short-query:{language.name}")
    rep.add("short-query", not failures, measured=max(queries) if queries else None,
            bound=bound.describe(), detail=f"{total} member samples")
    return rep.itemize("sample", failures)
