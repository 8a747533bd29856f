"""Preprocessing witnesses and the checks that keep them honest.

A witness for a language of pairs S is a preprocessing map together with
a post language S' and an output size bound, claiming

    <D, Q> in S  <=>  <preprocess(D), Q> in S'      (both directions)
    |preprocess(D)| <= output_bound(|D|)            (for every tested D)

verify_witness probes the equivalence two-sidedly; digest_size_ladder
measures digest growth along a geometric size ladder and regresses
log(digest) against log(log(input)) so a polylog claim with exponent k
shows up as a slope of at most k (plus slack).
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .encoding import Instance, LanguageOfPairs, Pair, PolylogBound
from .errors import GeneratorExhausted, InsufficientData, MislabeledSample
from .report import Report, probe


@dataclass(frozen=True)
class PreprocessingWitness:
    name: str
    preprocess: Callable[[Instance], Instance]
    post_language: LanguageOfPairs
    output_bound: PolylogBound


def verify_witness(
    language: LanguageOfPairs,
    witness: PreprocessingWitness,
    positives: Iterable[Pair],
    negatives: Iterable[Pair],
) -> Report:
    """Two-sided equivalence and size check on labeled samples.

    Raises MislabeledSample when the reference oracle disagrees with a
    label; that is a broken test harness, not a failed verification.
    """
    excesses: list[float] = []

    def side(expected, label):
        def test(idx, pair):
            if language.member(pair) != expected:
                raise MislabeledSample(
                    f"{label} sample {idx} mislabeled for {language.name}"
                )
            digest = witness.preprocess(pair.data)
            excess = len(digest) - witness.output_bound(len(pair.data))
            excesses.append(excess)
            if excess > 0:
                return (f"{label}-output-bound",
                        f"|digest|={len(digest)} exceeds bound by {excess:.2f}")
            got = witness.post_language.membership(digest, pair.query)
            if got != expected:
                return f"{label}-iff", f"mapped membership {got}, want {expected}"
            return None
        return test

    n_positive, positive_failures = probe(positives, side(True, "positive"))
    n_negative, negative_failures = probe(negatives, side(False, "negative"))
    failures = positive_failures + negative_failures
    failed = [condition for _, condition, _ in failures]
    size_excess = max(excesses) if excesses else None
    rep = Report(f"witness:{witness.name}")
    rep.add("positive-iff", "positive-iff" not in failed,
            measured=n_positive, detail="members carried over")
    rep.add("negative-iff", "negative-iff" not in failed,
            measured=n_negative, detail="non-members stay out")
    rep.add("output-bound", size_excess is None or size_excess <= 0,
            measured=None if size_excess is None else round(size_excess, 3),
            bound=witness.output_bound.describe(),
            detail="max |digest| - bound(|data|) over both sides")
    return rep.itemize("sample", failures)


def log_fit(
    model: str, sizes: Sequence[int], values: Sequence[float]
) -> tuple[float, float, float]:
    """Least-squares line of log(value) against log(n) for model 'poly-n'
    (v ~ n^e) or log(log2(n)) for 'poly-log-n' (v ~ log2(n)^e).

    Returns (slope, intercept, root-mean-square residual); the slope
    estimates e. Values below 1 count as 1; equal values give slope 0,
    where the regression would be degenerate. Sizes that all give one x
    raise InsufficientData.
    """
    if model == "poly-n":
        xs = [math.log(n) for n in sizes]
    elif model == "poly-log-n":
        xs = [math.log(math.log2(max(n, 4))) for n in sizes]
    else:
        raise ValueError(f"unknown model {model!r}")
    ys = [math.log(max(v, 1)) for v in values]
    if len(set(ys)) == 1:
        slope, intercept = 0.0, ys[0]
    else:
        # statistics.linear_regression's arithmetic, without its import
        xbar = math.fsum(xs) / len(xs)
        ybar = math.fsum(ys) / len(ys)
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        sxx = math.fsum((d := x - xbar) * d for x in xs)
        if not sxx:
            raise InsufficientData(f"every size has one x value under {model!r}")
        slope = sxy / sxx
        intercept = ybar - slope * xbar
    residual = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return slope, intercept, residual


# How far a fitted exponent may exceed the exponent it is checked
# against: a ladder's digest slope over its witness's declared k, and a
# runtime fit's slope over its cap.
SLOPE_SLACK = 0.5


@dataclass(frozen=True)
class LadderRung:
    input_size: int
    max_digest_size: int
    # preprocessing time of the rung's instances, and the time gen took
    # to hand them over
    wall_time_ns: int
    draw_ns: int

    def to_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "max_digest_size": self.max_digest_size,
            "wall_time_ns": self.wall_time_ns,
            "draw_ns": self.draw_ns,
        }


@dataclass(frozen=True)
class LadderReport:
    rungs: tuple[LadderRung, ...]
    slope: float
    exponent_cap: float
    bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.bound_ok and self.slope <= self.exponent_cap


def digest_size_ladder(
    witness: PreprocessingWitness,
    gen: Callable[[int], Iterable[Instance]],
    sizes: Sequence[int],
    slope_slack: float = SLOPE_SLACK,
    keep: Callable[[int, list[Instance], list[Instance]], None] | None = None,
) -> LadderReport:
    """Measure digest sizes along a geometric ladder of input sizes.

    Passes iff every digest obeys the declared bound pointwise and the
    fitted slope of log(max digest) vs log(log(max input)) stays within
    output_bound.k + slope_slack. keep, if given, is called as
    keep(size, instances, digests) for each rung whose digests all obey
    the bound, so a later reader of the rung can be handed what it needs.
    """
    if len(sizes) < 4 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InsufficientData(
            "need at least 4 strictly increasing ladder rungs"
        )
    rungs = []
    bound_ok = True
    for size in sizes:
        t0 = time.perf_counter_ns()
        instances = list(gen(size))
        drawn = time.perf_counter_ns() - t0
        if not instances:
            raise GeneratorExhausted(f"no instances generated at size {size}")
        t0 = time.perf_counter_ns()
        digests = [witness.preprocess(x) for x in instances]
        elapsed = time.perf_counter_ns() - t0
        max_input = max(len(x) for x in instances)
        max_digest = max(len(d) for d in digests)
        if any(len(d) > witness.output_bound(len(x)) for x, d in zip(instances, digests)):
            bound_ok = False
        elif keep is not None:
            keep(size, instances, digests)
        rungs.append(LadderRung(max_input, max_digest, elapsed, drawn))
        del instances, digests  # gone before the next rung is drawn
    slope, _, _ = log_fit(
        "poly-log-n",
        [r.input_size for r in rungs], [r.max_digest_size for r in rungs])
    return LadderReport(
        rungs=tuple(rungs),
        slope=slope,
        exponent_cap=witness.output_bound.k + slope_slack,
        bound_ok=bound_ok,
    )
