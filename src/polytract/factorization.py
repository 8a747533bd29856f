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
from .errors import MalformedInstance, NonMemberSample
from .report import Report


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
    rep = Report(f"factorization:{fl.name}")
    failures: list[tuple[int, str, str]] = []
    bad_restore = bad_redundancy = bad_query = 0
    slack_min = slack_max = None
    query_worst = None
    total = 0
    for idx, x in enumerate(samples):
        if not fl.base(x):
            raise NonMemberSample(f"sample {idx} is not a member of {fl.name}")
        total += 1
        d = fact.data_part(x)
        q = fact.query_part(x)
        if fact.restore(d, q) != x:
            bad_restore += 1
            failures.append((idx, "restore", "restore(parts) != x"))
            continue
        slack = len(d) + len(q) - len(x)
        slack_min = slack if slack_min is None else min(slack_min, slack)
        slack_max = slack if slack_max is None else max(slack_max, slack)
        if slack > fact.redundancy:
            bad_redundancy += 1
            failures.append(
                (idx, "redundancy", f"slack {slack} > {fact.redundancy}")
            )
            continue
        limit = fact.query_bound(len(d))
        if query_worst is None or len(q) > query_worst:
            query_worst = len(q)
        if len(q) > limit:
            bad_query += 1
            failures.append((idx, "query-bound", f"|q|={len(q)} > {limit:.2f}"))
    rep.add("restore-roundtrip", bad_restore == 0, measured=bad_restore, bound=0,
            detail=f"{total} member samples")
    rep.add("redundancy", bad_redundancy == 0, measured=slack_max,
            bound=fact.redundancy,
            detail=f"observed slack in [{slack_min}, {slack_max}]")
    rep.add("query-bound", bad_query == 0, measured=query_worst,
            bound=fact.query_bound.describe())
    rep.itemize("sample", failures)
    return rep


def check_prop1(fl: FactoredLanguage, samples: Sequence[Instance]) -> Report:
    """Check that the query part is short relative to the whole instance.

    The limit is query_bound(|x| + redundancy), which dominates
    query_bound(|data_part(x)|) whenever conditions (2) and (3) hold,
    because the bound template is monotone.
    """
    fact = fl.fact
    rep = Report(f"prop1:{fl.name}")
    failures = []
    worst = None
    total = 0
    for idx, x in enumerate(samples):
        if not fl.base(x):
            raise NonMemberSample(f"sample {idx} is not a member of {fl.name}")
        total += 1
        q = fact.query_part(x)
        limit = fact.query_bound(max(len(x) + fact.redundancy, 2))
        if worst is None or len(q) > worst:
            worst = len(q)
        if len(q) > limit:
            failures.append((idx, "whole-size-bound", f"|q|={len(q)} > {limit:.2f}"))
    rep.add("query-short-in-whole-size", not failures, measured=worst,
            bound=f"{fact.query_bound.describe()} at n+{fact.redundancy}",
            detail=f"{total} member samples")
    rep.itemize("sample", failures)
    return rep


def check_short_query(language: LanguageOfPairs, samples: Iterable[Pair]) -> Report:
    """Check |query| <= bound(|data|) on member samples.

    Raises NonMemberSample if any sample fails the membership oracle; an
    empty sample set passes vacuously.
    """
    rep = Report(f"short-query:{language.name}")
    bound = language.short_query_bound
    failures = []
    worst = None
    total = 0
    for idx, pair in enumerate(samples):
        if not language.member(pair):
            raise NonMemberSample(
                f"sample {idx} is not a member of {language.name}"
            )
        total += 1
        limit = bound(len(pair.data))
        if worst is None or len(pair.query) > worst[0]:
            worst = (len(pair.query), limit)
        if len(pair.query) > limit:
            failures.append(
                (idx, "short-query", f"|Q|={len(pair.query)} > {limit:.2f}")
            )
    rep.add(
        "short-query",
        not failures,
        measured=None if worst is None else worst[0],
        bound=bound.describe(),
        detail=f"{total} member samples",
    )
    rep.itemize("sample", failures)
    return rep
