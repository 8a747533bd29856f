"""Pinned output of the large-instance generators and the stream they leave.

Every ladder, sampler and report downstream is a function of these
bytes, so a faster generator must draw exactly what the plain one drew:
same instance bytes and the same random state afterwards, which the next
`rng.random()` shows. The sparse bds sizes straddle n = 21, where
`random.Random.sample` switches from its pool branch to its set branch.
The dense bds generator behind the small samplers is pinned too, since
it shares the numbering shuffle with the sparse one. So are the catalog's
samplers the suite checks draw from: the labeled pairs of every witness,
the problem samplers and the circuit-pair sampler.
"""
import hashlib
import random

import pytest

from polytract.catalog import build_catalog
from polytract.harness import SuiteConfig
from polytract.problems import bds, cvp

BDS = {
    5: ("a00b9eea555820dabf90163ed966e2e5c9aa45545d944848052ec142b8b3ac46",
        0.9569008890579226),
    21: ("8af38f909fa4d25078f467758eaecc6aef8d651acee8cf7ebf6d8c7c61bf3209",
         0.43740465391848105),
    22: ("571996245f034b6a76f67521beec90993721ccde431e803c84371f9f0e71f7e3",
         0.37091769480107695),
    1024: ("10d1cd556b6cfd8fe8b956576515f516555e097c61fea187072a36071fe47d29",
           0.3437292523254083),
    65536: ("680b61b25cc9ef1b8b7c914c7cf7ad9a77e7de3471a7a55da3891e2116b93c73",
            0.07537499736443776),
}

DENSE_BDS = {
    2: ("873847651514ba2d1d8fc1b75f5992e8d876f127c7e059e6ed25e5b5fae5f3f0",
        0.9470862793193289),
    5: ("d1f2e94e537163fad23f095071aa4138940e4e81001a64c58999852ffa3cee72",
        0.061803479472788414),
    16: ("de0b1c5913404fbace5be3ee078ba24c4098ab73157f17862827f2017d64ce23",
         0.3798249702579167),
    30: ("360f5f7fbc527cd4fdd2a75b75d99bccdc74f9195c09dbaf629b26f1205667fe",
         0.7957403289549253),
}

CVP = {
    4: ("8806c099d83f1b59a632ad8e96fede723fe52a6ea849514e9de33eeafd0e26e0",
        0.9824832696309496),
    1024: ("b189199aa846c5acb843181a5a280a00515df665e55a3b9630ccded9983d570f",
           0.47888191941257485),
    65536: ("ff705021b48e710e0bc411c590f0bb15a7d180ca2dafe0a44f577e4510190df5",
            0.28739867711466593),
}


def _sha256(x: bytes) -> str:
    return hashlib.sha256(x).hexdigest()


@pytest.mark.parametrize("n", sorted(BDS))
def test_sparse_bds_stream_is_pinned(n):
    rng = random.Random(f"streams:bds:{n}")
    x = bds.random_sparse_instance(n, rng)
    assert (_sha256(x), rng.random()) == BDS[n]


@pytest.mark.parametrize("n", sorted(DENSE_BDS))
def test_dense_bds_stream_is_pinned(n):
    rng = random.Random(f"streams:bds-dense:{n}")
    x = bds.random_instance(n, rng)
    assert (_sha256(x), rng.random()) == DENSE_BDS[n]


@pytest.mark.parametrize("n", sorted(CVP))
def test_circuit_stream_is_pinned(n):
    rng = random.Random(f"streams:cvp:{n}")
    x = cvp.circuit_to_bytes(cvp.random_circuit(n, rng))
    assert (_sha256(x), rng.random()) == CVP[n]


WITNESS_PAIRS = {
    "bds-verdict-bit": "71ac84b839f71d6dbfe66f20368c95585bba7c8ff2dbe5a0a5bc7587097b9865",
    "cvp-verdict-bit": "1b604219ee5e31708ec61437b314dd345b3779f15a0d75c2b06440621eb52cd2",
    "wordstats-count-digest":
        "4b0d3642adcfa8fe44d07c5d07a2fb745300de9a494defefce447b4aa7780550",
}

PROBLEM_SAMPLES = {
    "bds": "68e41b0877a58fa251063ab4a0758b071e07370dca83dfe585ce4f1170c5d4f3",
    "qbds": "ccf227f8a764b3513e12918f71b6e3689dc142be8c6d83bcf24f37deda284582",
    "cvp": "91f3b579c6da347a940d10d56c4b47f45219db4a84ce22468cb04c2407594cb8",
}

CVP_PAIRS = "c1fe6ff86287a097824ca9f93474e1a59ab9601fb5edc71d6aa9e1b97f3942e4"


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(SuiteConfig())


def _pairs_sha256(*sides) -> str:
    return _sha256(repr([[(p.data, p.query) for p in side] for side in sides]).encode())


@pytest.mark.parametrize("name", sorted(WITNESS_PAIRS))
def test_witness_sample_pairs_are_pinned(catalog, name):
    pos, neg = catalog.witnesses[name].sample_pairs(42, 500)
    assert _pairs_sha256(pos, neg) == WITNESS_PAIRS[name]


@pytest.mark.parametrize("name", sorted(PROBLEM_SAMPLES))
def test_problem_samples_are_pinned(catalog, name):
    samples = catalog.problems[name].sample(42, 3, 200)
    assert _sha256(repr(samples).encode()) == PROBLEM_SAMPLES[name]


def test_circuit_pair_samples_are_pinned(catalog):
    pairs = catalog.f_reductions["cvp-identity"].sample_pairs(42, 200)
    assert _pairs_sha256(pairs) == CVP_PAIRS
