"""Suite configuration, timing, runtime fits, and the table of named checks.

Configuration files are plain key = value text (see the README for the
grammar). All randomness flows from one seed through stable string-keyed
substreams, so a report is reproducible byte for byte once the volatile
timing fields are stripped.

Runtime growth is judged by least-squares fits in log space: a polynomial
claim t ~ n^e fits log t against log n, a polylog claim t ~ log(n)^e fits
log t against log log n. The slope estimates the exponent.
"""
from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field, fields, replace

from . import catalog as catalog_mod
from .encoding import Pair, PolylogBound, parse_bound
from .errors import ConfigError, InsufficientData
from .factorization import (
    apply_factorization,
    check_prop1,
    check_short_query,
    induced_pairs,
    verify_factorization,
)
from .preprocessing import SLOPE_SLACK, digest_size_ladder, log_fit, verify_witness
from .problems import bds, wordstats
from .reductions import (
    compose_fcr,
    pullback_witness_f,
    transfer_witness,
    verify_f_reduction,
    verify_fcr_reduction,
    hardness_pack,
)
from .report import SCHEMA_VERSION, Report
from .separation import ENUMERATION_CAP, SeparationReport, separation_report

DEFAULT_LADDER = (1024, 4096, 16384, 65536)


@dataclass
class SuiteConfig:
    seed: int = 42
    ladder: tuple[int, ...] = DEFAULT_LADDER
    random_budget: int = 200
    witness_samples: int = 60
    lexicon: tuple[str, ...] = wordstats.DEFAULT_LEXICON
    exhaustive_caps: dict = field(default_factory=lambda: {"bds": 3, "separation": 5})
    separation_max_n: int = 20
    bounds: dict = field(default_factory=lambda: dict(catalog_mod.DEFAULT_BOUNDS))
    inject: tuple[str, ...] = ()
    output_path: str | None = None


# Config keys that set one field from its text value, by the field's
# annotation; the other fields have their own grammar in apply_key.
_PARSERS = {"int": int, "str | None": str}
_SCALARS = {f.name: _PARSERS[f.type] for f in fields(SuiteConfig) if f.type in _PARSERS}

# The largest value of each exhaustive cap. bds enumerates every graph up
# to the cap with every query pair: 2.48 million instances at 5, about
# 7 * 10**8 at 6.
_CAP_LIMITS = {
    "bds": (5, "bds instance enumeration cap"),
    "separation": (ENUMERATION_CAP, "edgeless enumeration cap"),
}
# The largest separation_max_n. The table writes n! in decimal, which
# from n = 1,559 on has more digits than Python's int-to-str limit
# (4,300) allows.
_SEPARATION_MAX_N = 1000


# Every bound a check reads: the catalog's declared bounds and the
# separation check's digest budget.
_BOUND_NAMES = (*catalog_mod.DEFAULT_BOUNDS, "separation")


def parse_config(text: str, base: SuiteConfig | None = None) -> SuiteConfig:
    """Parse key = value lines; '#' starts a comment, blank lines ignored."""
    cfg = replace(base) if base else SuiteConfig()
    cfg.exhaustive_caps = dict(cfg.exhaustive_caps)
    cfg.bounds = dict(cfg.bounds)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            apply_key(cfg, key, value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return cfg


def apply_key(cfg: SuiteConfig, key: str, value: str) -> None:
    """Set one config key from its text value, as a config file line does."""
    if key in _SCALARS:
        setattr(cfg, key, _SCALARS[key](value))
    elif key == "ladder":
        cfg.ladder = tuple(int(v.strip()) for v in value.split(",") if v.strip())
    elif key == "lexicon":
        cfg.lexicon = tuple(w.strip().lower() for w in value.split(",") if w.strip())
    elif key == "inject":
        cfg.inject = tuple(_known(v.strip(), catalog_mod.INJECTIONS, "inject entry")
                           for v in value.split(",") if v.strip())
    elif key.startswith("exhaustive_cap."):
        name = _known(key.partition(".")[2], cfg.exhaustive_caps, "exhaustive cap")
        cfg.exhaustive_caps[name] = int(value)
    elif key.startswith("bound."):
        name = _known(key.partition(".")[2], _BOUND_NAMES, "bound")
        cfg.bounds[name] = parse_bound(value)
    else:
        raise ConfigError(f"unknown key {key!r}")
    check_config(cfg)


def check_config(cfg: SuiteConfig) -> None:
    """Raise ConfigError for the first budget, ladder, lexicon, separation
    size or cap out of range. Setting a key, loading a config and running
    a check all call this, so a config built in code meets what a config
    file must."""
    if cfg.random_budget < 0:
        raise ConfigError(f"random_budget {cfg.random_budget} is negative")
    if cfg.witness_samples < 1:
        raise ConfigError(f"witness_samples {cfg.witness_samples} is below 1")
    # Every fit needs four rungs, and a bds or cvp rung has at least 4
    # nodes, so a smaller size would repeat the rung above it.
    ladder = cfg.ladder
    if len(ladder) < 4 or ladder[0] < 4 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder needs at least 4 strictly increasing sizes, "
                          "the smallest at least 4")
    if not cfg.lexicon:
        raise ConfigError("lexicon needs at least one word")
    # Corpora are split on whitespace and lowercased (wordstats.corpus_from_text),
    # so a word that is not one lowercase token never occurs.
    for word in cfg.lexicon:
        if word.split() != [word]:
            raise ConfigError(f"lexicon word {word!r} is not a single token")
        if word.lower() != word:
            raise ConfigError(f"lexicon word {word!r} is not lowercase")
    if cfg.separation_max_n > _SEPARATION_MAX_N:
        raise ConfigError(f"separation_max_n {cfg.separation_max_n} exceeds "
                          f"{_SEPARATION_MAX_N}")
    if cfg.exhaustive_caps.keys() != _CAP_LIMITS.keys():
        raise ConfigError(f"exhaustive caps must be {', '.join(sorted(_CAP_LIMITS))}")
    for name, (limit, what) in _CAP_LIMITS.items():
        cap = cfg.exhaustive_caps[name]
        if not 0 <= cap <= limit:
            raise ConfigError(f"exhaustive_cap.{name} {cap} exceeds the {what} "
                              f"(0..{limit})")


def _known(name: str, known, what: str) -> str:
    if name not in known:
        raise ConfigError(f"unknown {what} {name!r}; known: {', '.join(sorted(known))}")
    return name


def load_config(path: str | None) -> SuiteConfig:
    """The default config, with the keys of the file at `path` if given."""
    if path is None:
        return SuiteConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from None
    return parse_config(text)


def _echo(name: str, value):
    if name == "bounds":
        return {k: v.describe() for k, v in sorted(value.items())}
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def config_echo(cfg: SuiteConfig) -> dict:
    """Every field but the output path, in JSON-friendly form."""
    return {f.name: _echo(f.name, getattr(cfg, f.name))
            for f in fields(cfg) if f.name != "output_path"}


# ------------------------------------------------------------------ timing


def time_interleaved_ns(tasks) -> list[float]:
    """Per-call floor for each (fn, calls) task, interleaving the tasks.

    The first sweep warms everything up untimed; each of the seven later
    sweeps times every task once and each task keeps its fastest sweep.
    Sweeping the tasks together makes slow drift (frequency scaling,
    competing load) land on all of them alike instead of biasing whichever
    ran last, which matters when the tasks are rungs of one growth curve.
    """
    best = [math.inf] * len(tasks)
    for sweep in range(8):
        for i, (fn, calls) in enumerate(tasks):
            t0 = time.perf_counter_ns()
            for args in calls:
                fn(*args)
            per_call = (time.perf_counter_ns() - t0) / max(len(calls), 1)
            if sweep and per_call < best[i]:
                best[i] = per_call
    return best


@dataclass(frozen=True)
class FitResult:
    model: str
    exponent: float
    intercept: float
    residual: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "exponent": round(self.exponent, 4),
            "intercept": round(self.intercept, 4),
            "residual": round(self.residual, 4),
        }


def fit_runtime(measurements, model: str = "poly-n") -> FitResult:
    """Least-squares exponent estimate from (size, nanoseconds) points.

    model 'poly-n' fits t ~ n^e; 'poly-log-n' fits t ~ log2(n)^e. Needs at
    least four measurements at strictly increasing sizes.
    """
    points = sorted(measurements)
    if len(points) < 4:
        raise InsufficientData("need at least 4 measurements to fit")
    sizes = [p[0] for p in points]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InsufficientData("measurement sizes must be strictly increasing")
    slope, intercept, residual = log_fit(model, sizes, [t for _, t in points])
    return FitResult(model, slope, intercept, residual)


# ------------------------------------------------------------ the checks
#
# Each suite stage is one named check. A check body takes the catalog and
# the config and returns one Report; run_check dispatches to it by name.


def _sample(cat, config: SuiteConfig, name: str, budget: int) -> list:
    """Instances from the sampler of the problem `name` starts with: the
    exhaustive part up to the configured bds cap, then `budget` random ones."""
    return cat.sampler(name)(config.seed, config.exhaustive_caps["bds"], budget)


# The smallest ladder rung whose instances after the first _ladder_task
# decides in a helper process. On a 2-CPU host a helper's fork and round
# trip cost about 7.5 ms, a decide about 105 ms at 65,536 nodes and 9 ms
# at 4,096, so a helper shortens the large rungs and lengthens the
# small ones.
_HELPER_NODES = 16_384


def _ladder_task(cat, config: SuiteConfig, sizes) -> tuple[dict, dict, dict, int]:
    """Draw and decide the bds ladder rungs of `sizes`, in that order, as
    witness:bds-verdict-bit reads them: a rung's instances through the
    witness's own ladder_gen, then each one through cat.bds_verdict, the
    table its preprocessing asks. On a rung of at least _HELPER_NODES
    nodes, a forked helper (worker.Worker) decides every instance after
    the first (_decide) while this process decides the first, and the
    helper's entries join the table. run_suite makes this call in
    workers forked before any draw, so the catalog's draws and verdicts
    it returns are the rungs' entries alone. The third value maps each
    size to the rung's (draw ns, decide ns), the decide being the wall
    time of the rung's decides, and the fourth counts the helpers."""
    # Imported here, so importing polytract does not load pickle.
    from .worker import Worker

    ladder_gen = cat.witnesses["bds-verdict-bit"].ladder_gen
    times = {}
    helpers = 0
    for size in sizes:
        t0 = time.perf_counter_ns()
        instances = ladder_gen(size, config.seed)
        t1 = time.perf_counter_ns()
        if size < _HELPER_NODES:
            for x in instances:
                cat.bds_verdict(x)
        else:
            helper = Worker(_decide, instances[1:])
            helpers += 1
            try:
                cat.bds_verdict(instances[0])
                cat.verdicts.update(helper.result())
            finally:
                helper.close()
        times[size] = t1 - t0, time.perf_counter_ns() - t1
    return cat.drawn, cat.verdicts, times, helpers


def _decide(instances) -> dict:
    """The verdict table entries of `instances`, decided in a fresh catalog."""
    fresh = catalog_mod.Catalog()
    for x in instances:
        fresh.bds_verdict(x)
    return fresh.verdicts


def _deal(sizes, count: int) -> list[list[int]]:
    """Deal the ladder sizes into `count` shares, largest first, each to
    the share with the fewest nodes so far (the first of a tie), since a
    rung costs about its node count to draw and decide."""
    shares = [[] for _ in range(count)]
    for size in sorted(sizes, reverse=True):
        min(shares, key=sum).append(size)
    return shares


def _factorization_check(cat, config: SuiteConfig, name: str) -> Report:
    fl = catalog_mod._lookup(cat.factored, name, "factored language")
    raw = _sample(cat, config, name, config.random_budget)
    members = [x for x in raw if fl.base(x)]
    rep = verify_factorization(fl, members)
    rep.extend(check_prop1(fl, members))
    return rep


def _ladder_row(rep: Report, name: str, witness, gen, config: SuiteConfig,
                detail: str = "", keep=None) -> None:
    """Run the digest-size ladder of `witness` over `gen` and add its
    `ladder:<name>` row; keep goes to digest_size_ladder."""
    ladder = digest_size_ladder(witness, gen, config.ladder, keep=keep)
    rep.add(f"ladder:{name}", ladder.passed,
            measured=round(ladder.slope, 4), bound=ladder.exponent_cap, detail=detail,
            timings={"rungs": [r.to_dict() for r in ladder.rungs]})


def _one_more_row(rep: Report, name: str, fact, base) -> None:
    """Add a row that passes when fact's redundancy is exactly base's + 1."""
    rep.add(name, fact.redundancy == base.redundancy + 1,
            measured=fact.redundancy, bound=base.redundancy + 1)


def _fcr_check(cat, config: SuiteConfig, r, source_member, target_member,
               problem: str, budget: int) -> Report:
    """Verify r on samples of `problem`, each split by r's source
    factorization."""
    pairs = [apply_factorization(r.source_fact, x)
             for x in _sample(cat, config, problem, budget)]
    return verify_fcr_reduction(r, source_member, target_member, pairs)


# What a cvp or wordstats witness stage holds from a ladder rung whose
# digests all obey the bound, made from the rung's instances and digests,
# for runtime-fits, which reads the same rung: the length of a cvp rung's
# first instance and its digests, and a wordstats rung's first corpus,
# on which it times the digest kernel, and its digests. runtime-fits takes its
# entry with _held. The bds rungs need no entry: the catalog keeps them.
_HANDOFF = {
    "cvp-verdict-bit": lambda instances, digests: (len(instances[0]), list(digests)),
    "wordstats-count-digest": lambda instances, digests: (instances[0], list(digests)),
}


def _held(cat, config: SuiteConfig, name: str, size: int):
    """Pop what witness `name`'s stage held from its ladder rung at `size`
    (see _HANDOFF). With nothing held, as for a stage run alone, draw and
    preprocess the rung and make the entry here."""
    held = cat.held.pop((name, size, config.seed), None)
    if held is None:
        entry = cat.witnesses[name]
        instances = entry.ladder_gen(size, config.seed)
        held = _HANDOFF[name](instances, map(entry.witness.preprocess, instances))
    return held


def _witness_check(cat, config: SuiteConfig, name: str) -> Report:
    entry = catalog_mod._lookup(cat.witnesses, name, "witness")
    pos, neg = entry.sample_pairs(config.seed, config.witness_samples)
    rep = verify_witness(entry.language, entry.witness, pos, neg)
    handoff = _HANDOFF.get(name)

    def keep(size: int, instances: list, digests: list) -> None:
        cat.held[name, size, config.seed] = handoff(instances, digests)

    _ladder_row(rep, name, entry.witness, lambda size: entry.ladder_gen(size, config.seed),
                config, "slope of log digest vs log log input; bound checked per rung",
                keep if handoff else None)
    return rep


def _reduction_check(cat, config: SuiteConfig, name: str) -> Report:
    if name in cat.fcr_reductions:
        entry = cat.fcr_reductions[name]
        return _fcr_check(cat, config, entry.reduction, entry.source_member,
                          entry.target_member, name, config.random_budget)
    entry = catalog_mod._lookup(cat.f_reductions, name, "reduction")
    pairs = entry.sample_pairs(config.seed, config.random_budget)
    return verify_f_reduction(entry.reduction, entry.source, entry.target, pairs)


# The (first, second) factored reductions the compositions check composes.
COMPOSITIONS = (
    ("bds-identity", "bds-identity"),
    ("qbds-to-bds", "bds-identity"),
    ("qbds-identity", "qbds-to-bds"),
)


def _composition_checks(cat, config: SuiteConfig) -> Report:
    """Build the COMPOSITIONS and verify each, constants included."""
    rep = Report("compositions")
    budget = max(40, config.random_budget // 4)
    for first_name, second_name in COMPOSITIONS:
        first = cat.fcr_reductions[first_name]
        second = cat.fcr_reductions[second_name]
        probes = cat.sampler(first.reduction.target_fact.name)(config.seed, 2, 20)
        composed = compose_fcr(
            first.reduction, second.reduction, first.target_member, probes)
        label = composed.name
        measured = (composed.source_fact.redundancy, composed.target_fact.redundancy)
        bound = (first.reduction.source_fact.redundancy + 1,
                 second.reduction.target_fact.redundancy + 1)
        rep.add(f"constants:{label}", measured == bound, measured=measured, bound=bound)
        sub = _fcr_check(cat, config, composed, first.source_member,
                         second.target_member, first_name, budget)
        rep.checks.extend(replace(check, name=f"{label}.{check.name}")
                          for check in sub.checks)
    return rep


def _transfer_check(cat, config: SuiteConfig) -> Report:
    """Pull the verdict-bit witness back through the re-splitting reduction."""
    rep = Report("witness-transfer")
    entry = cat.fcr_reductions["qbds-to-bds"]
    wentry = cat.witnesses["bds-verdict-bit"]
    new_fact, new_witness = transfer_witness(entry.reduction, wentry.witness)
    _one_more_row(rep, "packed-redundancy", new_fact, entry.reduction.source_fact)

    raw = _sample(cat, config, "qbds", config.random_budget)
    induced = induced_pairs(new_fact, entry.source_member, "pairs(packed qbds)")
    positives, negatives = [], []
    for y in raw:
        pair = apply_factorization(new_fact, y)
        (positives if entry.source_member(y) else negatives).append(pair)
    sub = verify_witness(induced, new_witness, positives, negatives)
    rep.extend(sub)

    def ladder_gen(size):
        """The bds witness's ladder, joined and packed as the new witness reads it."""
        return [new_fact.data_part(catalog_mod.as_qbds(x))
                for x in wentry.ladder_gen(size, config.seed)]

    _ladder_row(rep, "transferred", new_witness, ladder_gen, config)
    return rep


def _hardness_check(cat, config: SuiteConfig) -> Report:
    """Wrap the join-dropping map into a reduction onto visit-order search."""
    rep = Report("hardness-pack")
    entry_bds = cat.factored["bds-all-data"]
    absorb = cat.factored["qbds-absorb"]
    packed = hardness_pack(absorb.fact.data_part, entry_bds.fact)
    _one_more_row(rep, "target-redundancy", packed.target_fact, entry_bds.fact)
    rep.extend(_fcr_check(cat, config, packed, absorb.base, entry_bds.base,
                          "qbds", config.random_budget))
    return rep


def _pullback_check(cat, config: SuiteConfig) -> Report:
    """Pull the circuit verdict witness back along double negation."""
    rep = Report("witness-pullback")
    fentry = cat.f_reductions["cvp-double-negation"]
    wentry = cat.witnesses["cvp-verdict-bit"]
    pulled = pullback_witness_f(fentry.reduction, wentry.witness, growth_pad=40)
    pos, neg = wentry.sample_pairs(config.seed + 1, config.witness_samples)
    sub = verify_witness(fentry.source, pulled, pos, neg)
    rep.extend(sub)
    return rep


def _short_query_checks(cat, config: SuiteConfig) -> Report:
    rep = Report("short-query")
    wentry = cat.witnesses["wordstats-count-digest"]
    pos, _ = wentry.sample_pairs(config.seed + 2, 40)
    rep.extend(check_short_query(cat.pair_languages["wordstats-pairs"], pos))

    rng = random.Random(f"{config.seed}:sq-qbds")
    pairs = []
    for _ in range(40):
        x = bds.random_instance(rng.randrange(2, 24), rng)
        if not cat.bds_verdict(x):
            x = bds.swap_query(x)
        block, tail = bds.split_block_tail(x)
        pairs.append(Pair(block, tail))
    rep.extend(check_short_query(cat.pair_languages["qbds-pairs"], pairs))
    return rep


def separation_table(config: SuiteConfig) -> SeparationReport:
    """The separation table for n = 1..separation_max_n, enumerating up to
    the configured separation cap, within the digest bit budget
    `bound.separation` (default log2(n)^2)."""
    return separation_report(
        range(1, config.separation_max_n + 1),
        config.bounds.get("separation", PolylogBound(1.0, 2, 0.0)),
        enumerate_max=config.exhaustive_caps["separation"])


def _separation_check(cat, config: SuiteConfig) -> Report:
    rep = Report("separation")
    sep = separation_table(config)
    rep.add("factorial-beats-2^n-from-4", sep.factorial_beats_power_from_4,
            detail=f"checked n up to {config.separation_max_n} exactly")
    for row in sep.rows:
        if row["realizable"] is not None:
            rep.add(f"realizable-orders:n={row['n']}",
                    row["realizable"] == row["factorial"],
                    measured=row["realizable"], bound=row["factorial"],
                    detail="edgeless family realizes every numbering order")
    rep.add("truncation-collision-found", sep.collision is not None,
            detail="two distinct visit orders share a truncated digest")
    return rep


# The runtime fits' fixed settings: a preprocessing fit passes with a
# degree up to _PTIME_MAX_DEGREE plus SLOPE_SLACK and a residual up to
# _FIT_RESIDUAL_MAX, and each query-latency rung times about _QUERY_REPS
# post-digest calls per sweep.
_PTIME_MAX_DEGREE = 3
_FIT_RESIDUAL_MAX = 1.0
_QUERY_REPS = 300


def _fit_checks(cat, config: SuiteConfig) -> Report:
    """Preprocessing stays polynomial; post-digest queries stay polylog."""
    rep = Report("runtime-fits")
    wname = "wordstats-count-digest"

    # Each wordstats rung's first corpus times the preprocessing, its
    # digests the post-digest queries. The witness's preprocessing
    # answers a corpus it has digested from the catalog's digest table,
    # so the fit times the digest kernel itself: every timed call
    # digests the whole corpus.
    wrungs = [_held(cat, config, wname, size) for size in config.ladder]
    _fit_row(rep, "preprocess-poly-degree:wordstats",
             [(len(corpus), (wordstats.count_digest, [(corpus, config.lexicon)]))
              for corpus, _ in wrungs],
             "poly-n", _PTIME_MAX_DEGREE + SLOPE_SLACK,
             "degree and residual of the log-log fit", _FIT_RESIDUAL_MAX)

    wquery = wordstats.query_bytes(config.lexicon[0], 1)
    _query_latency_row(rep, cat, config, wname, wquery,
                       [(len(corpus), digests) for corpus, digests in wrungs])
    # The corpora go before any cvp rung is drawn, so they add nothing
    # to the stage's peak.
    del wrungs
    _query_latency_row(rep, cat, config, "cvp-verdict-bit", b"",
                       [_held(cat, config, "cvp-verdict-bit", size) for size in config.ladder])
    return rep


def _query_latency_row(rep: Report, cat, config: SuiteConfig, name: str, query: bytes,
                       rungs: list) -> None:
    """Fit witness `name`'s post-digest latency over the ladder from one
    (size, digests) pair per rung, a rung's size being the length of its
    first instance. The row is named after the witness's problem, the
    first word of its name."""
    witness = cat.witnesses[name].witness
    timed = []
    for first_len, digests in rungs:
        calls = [(d, query) for d in digests]
        timed.append((first_len, (witness.post_language.membership,
                                  calls * max(1, _QUERY_REPS // len(calls)))))
    _fit_row(rep, f"query-latency-polylog:{name.partition('-')[0]}", timed, "poly-log-n",
             witness.output_bound.k + SLOPE_SLACK,
             "post-digest decision latency vs log input size")


def _fit_row(rep: Report, name: str, rungs: list, model: str, bound: float, detail: str,
             residual_max: float = math.inf) -> None:
    """Time one (size, (fn, calls)) task per rung with time_interleaved_ns,
    fit `model` to the sizes and floors, and add row `name`, passing when
    the exponent is within `bound` and the residual within `residual_max`.
    Rungs whose sizes tie leave nothing to fit: the row fails, untimed,
    and names the tied sizes."""
    sizes = [size for size, _ in rungs]
    tied = sorted({size for size in sizes if sizes.count(size) > 1})
    if tied:
        rep.add(name, False, bound=bound,
                detail=f"no fit: rungs tie at size {', '.join(map(str, tied))}")
        return
    fit = fit_runtime(list(zip(sizes, time_interleaved_ns([task for _, task in rungs]))), model)
    rep.add(name, fit.exponent <= bound and fit.residual <= residual_max,
            bound=bound, detail=detail, timings={"fit": fit.to_dict()})


# A stage is named "<kind>:<catalog name>" for the kinds in _NAMED_CHECKS
# and by its bare name for the checks in _CHECKS.
_NAMED_CHECKS = {
    "factorization": _factorization_check,
    "witness": _witness_check,
    "reduction": _reduction_check,
}
_CHECKS = {
    "compositions": _composition_checks,
    "witness-transfer": _transfer_check,
    "hardness-pack": _hardness_check,
    "witness-pullback": _pullback_check,
    "short-query": _short_query_checks,
    "separation": _separation_check,
    "runtime-fits": _fit_checks,
}

# The stages run_suite runs, in report order. The catalog's identity
# reductions are not among them: their two sides are the same language
# under identity maps, so no fault can fail their rows.
SUITE_STAGES = (
    "short-query",
    "factorization:bds-all-data", "factorization:qbds-absorb",
    "witness:bds-verdict-bit", "witness:cvp-verdict-bit",
    "witness:wordstats-count-digest",
    "reduction:qbds-to-bds", "reduction:cvp-double-negation",
    "compositions", "witness-transfer", "hardness-pack", "witness-pullback",
    "separation", "runtime-fits",
)

# The stages run_suite runs after its one join with the ladder workers,
# in SUITE_STAGES order: the two that read the bds ladder, and
# runtime-fits, so its timing fits never overlap a worker. _MAIN_LANE,
# every other stage, runs while the workers draw and decide, in
# SUITE_STAGES order but for witness:cvp-verdict-bit, its longest stage,
# which runs last: by then the worker with the small rungs has most
# often finished, so the cvp ladder shares the CPUs with one worker
# rather than two, and its rungs' times do not jump when that worker
# ends partway through it.
_AFTER_JOIN = ("witness:bds-verdict-bit", "witness-transfer", "runtime-fits")
_MAIN_LANE = tuple(s for s in SUITE_STAGES
                   if s not in _AFTER_JOIN and s != "witness:cvp-verdict-bit") + (
    "witness:cvp-verdict-bit",)


def run_check(cat, config: SuiteConfig, stage: str) -> Report:
    """Run the check a stage names, e.g. 'witness:bds-verdict-bit' or
    'compositions'; an unknown name raises UnknownProblem and a config
    out of range ConfigError."""
    check_config(config)
    kind, sep, name = stage.partition(":")
    if sep:
        return catalog_mod._lookup(_NAMED_CHECKS, kind, "check kind")(cat, config, name)
    return catalog_mod._lookup(_CHECKS, stage, "check")(cat, config)


# ------------------------------------------------------------- the suite


@dataclass
class SuiteReport:
    environment: dict
    reports: list[Report]
    timings: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def summary_lines(self) -> list[str]:
        return [line for r in self.reports for line in r.summary_lines()]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "verdict": "pass" if self.passed else "fail",
            "environment": self.environment,
            "checks": [r.to_dict() for r in self.reports],
            "timings": self.timings,
        }


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run every stage of SUITE_STAGES with the configured budgets.

    Before any draw, one worker process per usable CPU, and no more than
    the ladder has rungs, is forked. The rungs are dealt to them by
    _deal, and each worker draws and decides its share (_ladder_task),
    forking a helper for each rung of at least _HELPER_NODES nodes,
    while this process runs _MAIN_LANE; each sample stream is drawn by
    the first stage that reads it, through Catalog.draws. One join then
    reads the workers in the order they were forked, adds their draws
    and verdicts to the catalog and reaps them all, and _AFTER_JOIN
    runs; so no rung is decided in this process. The forks and the wait
    at the join are timed as draw-samples, and what the workers and
    their helpers spent goes in the timings of the ladder:bds-verdict-bit
    row (_note_workers). The reports and timings stay in SUITE_STAGES
    order. The workers are reaped however the run ends, a helper dies
    with its worker, and the exception of the first worker read that
    raised, its helper's included, reaches the caller."""
    check_config(config)
    cat = catalog_mod.build_catalog(config)
    done: dict[str, tuple[Report, int]] = {}

    def run(stage: str) -> None:
        t0 = time.perf_counter_ns()
        report = run_check(cat, config, stage)
        done[stage] = report, time.perf_counter_ns() - t0

    # Imported here, so importing polytract does not load pickle.
    from .worker import Worker

    shares = _deal(config.ladder, min(len(config.ladder), len(os.sched_getaffinity(0))))
    workers = []
    t0 = time.perf_counter_ns()
    try:
        for share in shares:
            workers.append(Worker(_ladder_task, cat, config, share))
        draw_ns = time.perf_counter_ns() - t0
        for stage in _MAIN_LANE:
            run(stage)
        t0 = time.perf_counter_ns()
        rung_ns = {}
        helpers = 0
        for worker in workers:
            drawn, verdicts, times, forked = worker.result()
            cat.drawn.update(drawn)
            cat.verdicts.update(verdicts)
            rung_ns.update(times)
            helpers += forked
        draw_ns += time.perf_counter_ns() - t0
    finally:
        for worker in workers:
            worker.close()
    for stage in _AFTER_JOIN:
        run(stage)
    _note_workers(done["witness:bds-verdict-bit"][0], config, rung_ns,
                  [worker.usage for worker in workers], helpers)

    return SuiteReport(
        environment={"seed": config.seed, "config": config_echo(config)},
        reports=[done[stage][0] for stage in SUITE_STAGES],
        timings={"draw-samples": draw_ns, **{stage: done[stage][1] for stage in SUITE_STAGES}},
    )


def _note_workers(rep: Report, config: SuiteConfig, rung_ns: dict, usages: list,
                  helpers: int) -> None:
    """Put what the ladder workers spent in the timings of rep's
    ladder:bds-verdict-bit row, whose own wall_time_ns then times table
    hits: each rung's draw_ns and decide_ns from the worker that drew and
    decided it, and the workers' count, total CPU ns and largest peak
    RSS in KB, and the count of their helpers. A worker's usage, as
    os.wait4 gives it on Linux, holds its reaped helpers' too."""
    i = next(i for i, row in enumerate(rep.checks) if row.name == "ladder:bds-verdict-bit")
    row = rep.checks[i]
    rungs = [dict(rung, draw_ns=rung_ns[size][0], decide_ns=rung_ns[size][1])
             for rung, size in zip(row.timings["rungs"], config.ladder)]
    workers = {"count": len(usages),
               "cpu_ns": round(sum(u.ru_utime + u.ru_stime for u in usages) * 1e9),
               "peak_rss_kb": max(u.ru_maxrss for u in usages),
               "helpers": helpers}
    rep.checks[i] = replace(row, timings={**row.timings, "rungs": rungs, "workers": workers})
