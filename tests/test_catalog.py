"""Totality of the catalog: every oracle and map it builds accepts any bytes.

Membership oracles and post languages must answer with a bool and maps
must return bytes, whatever they are given; a malformed input is a
non-member, never an exception. Arguments are arbitrary bytes or
well-formed specimens (instances, queries, digests), so a valid data part
can meet a garbage query and the other way round. The same holds for
what the harness builds from the catalog: compositions, transferred and
pulled-back witnesses and the hardness reduction.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from polytract import SuiteConfig, build_catalog
from polytract.encoding import pack_at
from polytract.harness import COMPOSITIONS
from polytract.reductions import (
    compose_fcr,
    hardness_pack,
    pullback_witness_f,
    transfer_witness,
)

CAT = build_catalog(SuiteConfig())


def _total_callables():
    """(label, function, number of byte arguments, return type)."""
    out = []
    for name, entry in sorted(CAT.problems.items()):
        out.append((f"member:{name}", entry.member, 1, bool))
    for name, lang in sorted(CAT.pair_languages.items()):
        out.append((f"membership:{name}", lang.membership, 2, bool))
    for name, entry in sorted(CAT.witnesses.items()):
        w = entry.witness
        out.append((f"preprocess:{name}", w.preprocess, 1, bytes))
        out.append((f"post:{name}", w.post_language.membership, 2, bool))
    for name, fl in sorted(CAT.factored.items()):
        out.append((f"data_part:{name}", fl.fact.data_part, 1, bytes))
        out.append((f"query_part:{name}", fl.fact.query_part, 1, bytes))
        out.append((f"restore:{name}", fl.fact.restore, 2, bytes))
    reductions = {**CAT.fcr_reductions, **CAT.f_reductions}
    for name, entry in sorted(reductions.items()):
        out.append((f"map_data:{name}", entry.reduction.map_data, 1, bytes))
        out.append((f"map_query:{name}", entry.reduction.map_query, 1, bytes))
    return out


def _specimens():
    out = set()
    for entry in CAT.witnesses.values():
        pos, neg = entry.sample_pairs(0, 2)
        for pair in pos + neg:
            out.update((pair.data, pair.query, entry.witness.preprocess(pair.data)))
    for name in ("bds", "qbds", "cvp"):
        out.update(CAT.problems[name].sample(0, 1, 2))
    return sorted(out)


def _constructions():
    """(label, function, number of byte arguments, return type) for the
    constructions the harness builds, wired as its checks wire them."""
    fcr, wit = CAT.fcr_reductions, CAT.witnesses
    out = []
    for first, second in COMPOSITIONS:
        r = compose_fcr(fcr[first].reduction, fcr[second].reduction,
                        fcr[first].target_member)
        out.append((f"map_data:{r.name}", r.map_data, 1, bytes))
        out.append((f"restore:{r.name}", r.target_fact.restore, 2, bytes))
    _, moved = transfer_witness(fcr["qbds-to-bds"].reduction,
                                wit["bds-verdict-bit"].witness)
    pulled = pullback_witness_f(CAT.f_reductions["cvp-double-negation"].reduction,
                                wit["cvp-verdict-bit"].witness, growth_pad=40)
    for w in (moved, pulled):
        out.append((f"preprocess:{w.name}", w.preprocess, 1, bytes))
        out.append((f"post:{w.name}", w.post_language.membership, 2, bool))
    packed = hardness_pack(CAT.factored["qbds-absorb"].fact.data_part,
                           CAT.factored["bds-all-data"].fact)
    out.append((f"map_data:{packed.name}", packed.map_data, 1, bytes))
    return out


TOTAL = _total_callables() + _constructions()
SPECIMENS = _specimens()
# Raw delimiters and escapes, and packed specimens, so both the split and
# the garbage fallback of a packed source pair are reached.
DELIMITED = st.lists(st.sampled_from([b"#", b"@", b"\\", b"\\h", b"\\a", b"1 2",
                                      b"\n", b"x"]), max_size=12).map(b"".join)
PACKED = st.sampled_from(sorted({pack_at(x, b"") for x in SPECIMENS}))
BYTES = st.one_of(st.binary(max_size=64), st.sampled_from(SPECIMENS),
                  DELIMITED, PACKED)


@pytest.mark.parametrize("fn, arity, returns",
                         [case[1:] for case in TOTAL],
                         ids=[case[0] for case in TOTAL])
@given(args=st.lists(BYTES, min_size=2, max_size=2))
def test_catalog_callables_are_total(fn, arity, returns, args):
    assert type(fn(*args[:arity])) is returns


def test_building_the_catalog_loads_no_typing_and_no_statistics():
    # Annotations are never evaluated and log_fit does its own least
    # squares, so a process that builds the catalog loads neither module,
    # nor the number types statistics brings in.
    code = ("import sys; import polytract; "
            "polytract.build_catalog(polytract.SuiteConfig()); "
            "print(sorted({'typing', 'statistics', 'fractions', 'decimal', 'numbers'}"
            " & set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"
