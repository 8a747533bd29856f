import math
import statistics
import time
import weakref

import pytest
from hypothesis import assume, given, strategies as st

from polytract.encoding import LanguageOfPairs, Pair, PolylogBound, ZERO_BOUND
from polytract.errors import (
    GeneratorExhausted,
    InsufficientData,
    MislabeledSample,
)
from polytract.preprocessing import (
    LadderReport,
    PreprocessingWitness,
    digest_size_ladder,
    log_fit,
    verify_witness,
)
from polytract.report import strip_timings

# Toy language: <D, Q> is in iff Q appears in D as a substring of length 1.
TOY = LanguageOfPairs(
    name="byte-present",
    membership=lambda d, q: len(q) == 1 and q in d,
    short_query_bound=PolylogBound(0.0, 0, 1.0),
)


def byte_set_digest(d: bytes) -> bytes:
    return bytes(sorted(set(d)))


GOOD_WITNESS = PreprocessingWitness(
    name="byte-set",
    preprocess=byte_set_digest,
    post_language=LanguageOfPairs(
        name="byte-present-post",
        membership=lambda d, q: len(q) == 1 and q in d,
        short_query_bound=PolylogBound(0.0, 0, 1.0),
    ),
    output_bound=PolylogBound(0.0, 0, 256.0),
)


def test_verify_witness_passes_good_witness():
    pos = [Pair(b"abcabc", b"a"), Pair(b"xyz", b"z")]
    neg = [Pair(b"abc", b"q"), Pair(b"", b"a"), Pair(b"abc", b"ab")]
    rep = verify_witness(TOY, GOOD_WITNESS, pos, neg)
    assert rep.passed


def test_verify_witness_raises_on_mislabeled_samples():
    with pytest.raises(MislabeledSample):
        verify_witness(TOY, GOOD_WITNESS, [Pair(b"abc", b"q")], [])
    with pytest.raises(MislabeledSample):
        verify_witness(TOY, GOOD_WITNESS, [], [Pair(b"abc", b"a")])


def test_verify_witness_flags_wrong_mapping():
    broken = PreprocessingWitness(
        name="drops-everything",
        preprocess=lambda d: b"",
        post_language=GOOD_WITNESS.post_language,
        output_bound=GOOD_WITNESS.output_bound,
    )
    rep = verify_witness(TOY, broken, [Pair(b"abc", b"a")], [])
    assert not rep.passed
    assert any(c.name == "positive-iff" and not c.passed for c in rep.checks)


def test_verify_witness_rows_fail_only_for_their_own_side():
    # Accepting everything breaks the negative side alone.
    lenient = PreprocessingWitness(
        name="accepts-all",
        preprocess=lambda d: d,
        post_language=LanguageOfPairs("all", lambda d, q: True, ZERO_BOUND),
        output_bound=GOOD_WITNESS.output_bound,
    )
    rep = verify_witness(TOY, lenient, [Pair(b"abc", b"a")], [Pair(b"abc", b"q")])
    verdicts = {c.name: c.passed for c in rep.checks}
    assert verdicts["positive-iff"] and verdicts["output-bound"]
    assert not verdicts["negative-iff"]
    assert verdicts["sample[0].negative-iff"] is False


def test_verify_witness_flags_oversized_digest():
    bloated = PreprocessingWitness(
        name="identity",
        preprocess=lambda d: d,
        post_language=GOOD_WITNESS.post_language,
        output_bound=PolylogBound(0.0, 0, 4.0),
    )
    rep = verify_witness(TOY, bloated, [Pair(b"abcde", b"a")], [])
    assert not rep.passed
    assert any(c.name == "output-bound" and not c.passed for c in rep.checks)


def test_oversized_digest_skips_the_iff_check():
    # An identity digest over the bound whose post language answers every
    # sample wrongly. The sample's size is reported and its post-language
    # answer is not asked for, so only the output-bound rows fail.
    wrong = PreprocessingWitness(
        name="bloated-and-wrong",
        preprocess=lambda d: d,
        post_language=LanguageOfPairs(
            "inverted", lambda d, q: not TOY.membership(d, q), ZERO_BOUND),
        output_bound=PolylogBound(0.0, 0, 4.0),
    )
    pos = [Pair(b"abcde", b"a"), Pair(b"fghij", b"j")]
    neg = [Pair(b"abcde", b"z")]
    for pairs, expected in ((pos, True), (neg, False)):
        assert all(wrong.post_language.membership(p.data, p.query) != expected
                   for p in pairs)
    rep = verify_witness(TOY, wrong, pos, neg)
    assert {c.name for c in rep.checks if not c.passed} == {
        "output-bound",
        "sample[0].positive-output-bound",
        "sample[1].positive-output-bound",
        "sample[0].negative-output-bound",
    }
    assert {c.name for c in rep.checks if c.passed} == {"positive-iff", "negative-iff"}


def _gen(size):
    # two inputs per rung, sizes exactly as requested
    return [bytes((i + j) % 7 + 97 for i in range(size)) for j in range(2)]


def test_ladder_constant_digest_has_zero_slope():
    rep = digest_size_ladder(GOOD_WITNESS, _gen, (64, 256, 1024, 4096))
    assert rep.slope == 0.0
    assert rep.passed
    assert [r.input_size for r in rep.rungs] == [64, 256, 1024, 4096]


def test_ladder_linear_digest_fails():
    identity = PreprocessingWitness(
        name="identity",
        preprocess=lambda d: d,
        post_language=GOOD_WITNESS.post_language,
        output_bound=PolylogBound(1.0, 1, 8.0),
    )
    rep = digest_size_ladder(identity, _gen, (64, 256, 1024, 4096))
    assert not rep.passed
    assert rep.slope > rep.exponent_cap
    assert not rep.bound_ok


def _witness(preprocess, output_bound):
    return PreprocessingWitness("toy", preprocess, GOOD_WITNESS.post_language, output_bound)


def test_ladder_within_the_bound_but_too_steep_fails():
    # An eighth of the input is far inside a huge constant bound, but it
    # grows faster than log2(n)^0 + slack.
    eighth = _witness(lambda d: d[:len(d) // 8], PolylogBound(1.0, 0, 10.0**6))
    rep = digest_size_ladder(eighth, _gen, (64, 256, 1024, 4096))
    assert rep.bound_ok
    assert rep.slope > rep.exponent_cap
    assert not rep.passed


def test_ladder_flat_but_over_the_bound_at_one_rung_fails():
    # 7 bytes at every rung: log2(64) = 6 is exceeded, log2(256) = 8 is not.
    seven = _witness(lambda d: b"x" * 7, PolylogBound(1.0, 1, 0.0))
    rep = digest_size_ladder(seven, _gen, (64, 256, 1024, 4096))
    assert rep.slope == 0.0 <= rep.exponent_cap
    assert not rep.bound_ok
    assert not rep.passed


def test_log_fit_of_two_distinct_values_has_a_slope():
    # Only equal values are flat; two distinct ones are a regression.
    slope, _, _ = log_fit("poly-n", (8, 16, 32, 64), (10, 10, 100, 100))
    assert slope > 0


@given(st.sampled_from(["poly-n", "poly-log-n"]),
       st.lists(st.integers(4, 2**40), min_size=2, max_size=12, unique=True),
       st.data())
def test_log_fit_matches_the_standard_library_regression(model, sizes, data):
    sizes.sort()
    values = data.draw(st.lists(st.floats(0.0, 1e12), min_size=len(sizes),
                                max_size=len(sizes)))
    ys = [math.log(max(v, 1)) for v in values]
    assume(len(set(ys)) > 1)
    if model == "poly-n":
        xs = [math.log(n) for n in sizes]
    else:
        xs = [math.log(math.log2(n)) for n in sizes]
    assume(len(set(xs)) > 1)
    reg = statistics.linear_regression(xs, ys)
    slope, intercept, _ = log_fit(model, sizes, values)
    assert (slope, intercept) == (reg.slope, reg.intercept)


def test_a_ladder_slope_equal_to_its_cap_passes():
    assert LadderReport(rungs=(), slope=1.5, exponent_cap=1.5, bound_ok=True).passed


def test_log_fit_floors_values_at_one_not_above():
    # v = 3n/4 exactly: 1.5 counts as itself, so the fit is exact.
    slope, intercept, residual = log_fit("poly-n", (2, 4, 8, 16), (1.5, 3, 6, 12))
    assert slope == pytest.approx(1.0)
    assert intercept == pytest.approx(math.log(0.75))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_log_fit_floors_sizes_at_four_not_above():
    # v = log2(n)^2 exactly: size 4 fits as 4, so the fit is exact.
    slope, _, residual = log_fit("poly-log-n", (4, 16, 256, 65536), (4, 16, 64, 256))
    assert slope == pytest.approx(2.0)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_ladder_rejects_thin_or_unsorted_sizes():
    with pytest.raises(InsufficientData):
        digest_size_ladder(GOOD_WITNESS, _gen, (64, 256, 1024))
    with pytest.raises(InsufficientData):
        digest_size_ladder(GOOD_WITNESS, _gen, (64, 256, 256, 1024))


def test_ladder_empty_generator():
    with pytest.raises(GeneratorExhausted):
        digest_size_ladder(GOOD_WITNESS, lambda size: [], (8, 16, 32, 64))


def test_ladder_times_the_draw_apart_from_preprocessing():
    def slow_gen(size):
        time.sleep(0.01)
        return _gen(size)

    rep = digest_size_ladder(GOOD_WITNESS, slow_gen, (64, 256, 1024, 4096))
    for rung in rep.rungs:
        assert rung.draw_ns >= 10_000_000 > rung.wall_time_ns
        # both times are volatile, so a stripped rung keeps only sizes
        assert strip_timings(rung.to_dict()) == {
            "input_size": rung.input_size, "max_digest_size": rung.max_digest_size}


def test_ladder_drops_each_rung_before_drawing_the_next():
    class Blob:
        """An input of a given length that a weak reference can watch."""

        def __init__(self, size):
            self.size = size

        def __len__(self):
            return self.size

    refs, alive_at_draw = [], []

    def gen(size):
        alive_at_draw.append(sum(ref() is not None for ref in refs))
        rung = [Blob(size), Blob(size)]
        refs.extend(map(weakref.ref, rung))
        return rung

    one_byte = PreprocessingWitness(
        name="one-byte", preprocess=lambda x: b"1",
        post_language=GOOD_WITNESS.post_language, output_bound=PolylogBound(0.0, 0, 1.0))
    assert digest_size_ladder(one_byte, gen, (64, 256, 1024, 4096)).passed
    assert alive_at_draw == [0, 0, 0, 0]


def test_failing_witness_report_is_pinned():
    # Identity digests under a bound of 0.5*log2(n)+2, read by a post
    # language that inverts its answer on data holding b"~".
    flipping = PreprocessingWitness(
        name="flips-on-tilde",
        preprocess=lambda d: d,
        post_language=LanguageOfPairs(
            "flipped", lambda d, q: len(q) == 1 and (q in d) != (b"~" in d), ZERO_BOUND),
        output_bound=PolylogBound(0.5, 1, 2.0),
    )
    pos = [Pair(b"ab", b"a"), Pair(b"a~", b"a"), Pair(b"abcdef", b"a")]
    neg = [Pair(b"ab", b"z"), Pair(b"b~", b"z"), Pair(b"bcdefgh", b"z")]
    assert verify_witness(TOY, flipping, pos, neg).to_dict() == {
        "name": "witness:flips-on-tilde",
        "verdict": "fail",
        "checks": [
            {"name": "positive-iff", "passed": False, "measured": 3, "bound": None,
             "detail": "members carried over"},
            {"name": "negative-iff", "passed": False, "measured": 3, "bound": None,
             "detail": "non-members stay out"},
            {"name": "output-bound", "passed": False, "measured": 3.596,
             "bound": "0.5*log2(n)^1+2.0",
             "detail": "max |digest| - bound(|data|) over both sides"},
            {"name": "sample[1].positive-iff", "passed": False, "measured": None,
             "bound": None, "detail": "mapped membership False, want True"},
            {"name": "sample[2].positive-output-bound", "passed": False,
             "measured": None, "bound": None,
             "detail": "|digest|=6 exceeds bound by 2.71"},
            {"name": "sample[1].negative-iff", "passed": False, "measured": None,
             "bound": None, "detail": "mapped membership True, want False"},
            {"name": "sample[2].negative-output-bound", "passed": False,
             "measured": None, "bound": None,
             "detail": "|digest|=7 exceeds bound by 3.60"},
        ],
    }
    assert verify_witness(TOY, flipping, [], []).to_dict() == {
        "name": "witness:flips-on-tilde",
        "verdict": "pass",
        "checks": [
            {"name": "positive-iff", "passed": True, "measured": 0, "bound": None,
             "detail": "members carried over"},
            {"name": "negative-iff", "passed": True, "measured": 0, "bound": None,
             "detail": "non-members stay out"},
            {"name": "output-bound", "passed": True, "measured": None,
             "bound": "0.5*log2(n)^1+2.0",
             "detail": "max |digest| - bound(|data|) over both sides"},
        ],
    }
    # 30 flipped samples a side: all 30 positive rows and the first 20
    # negative ones are itemized, then one overflow row.
    rep = verify_witness(TOY, flipping, [Pair(b"a~", b"a")] * 30,
                         [Pair(b"b~", b"z")] * 30).to_dict()
    assert rep["checks"][:3] == [
        {"name": "positive-iff", "passed": False, "measured": 30, "bound": None,
         "detail": "members carried over"},
        {"name": "negative-iff", "passed": False, "measured": 30, "bound": None,
         "detail": "non-members stay out"},
        {"name": "output-bound", "passed": True, "measured": -0.5,
         "bound": "0.5*log2(n)^1+2.0",
         "detail": "max |digest| - bound(|data|) over both sides"},
    ]
    assert rep["checks"][3:] == [
        *({"name": f"sample[{i}].positive-iff", "passed": False, "measured": None,
           "bound": None, "detail": "mapped membership False, want True"}
          for i in range(30)),
        *({"name": f"sample[{i}].negative-iff", "passed": False, "measured": None,
           "bound": None, "detail": "mapped membership True, want False"}
          for i in range(20)),
        {"name": "sample.overflow", "passed": False, "measured": 60,
         "bound": None, "detail": "10 further failing samples not itemized"},
    ]
    with pytest.raises(MislabeledSample,
                       match=r"^negative sample 1 mislabeled for byte-present$"):
        verify_witness(TOY, flipping, pos, [Pair(b"ab", b"z"), Pair(b"ab", b"a")])
