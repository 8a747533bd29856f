"""Finite-scale checker for digest preprocessing and factored reductions."""

from .encoding import (
    Instance,
    Pair,
    PolylogBound,
    decode_pair,
    encode_pair,
    pack_at,
    split_packed,
)
from .factorization import (
    CrFactorization,
    FactoredLanguage,
    apply_factorization,
    identity_factorization,
    packed_factorization,
    verify_factorization,
)
from .preprocessing import PreprocessingWitness, digest_size_ladder, verify_witness
from .reductions import (
    FcrReduction,
    FReduction,
    compose_fcr,
    hardness_pack,
    pullback_witness_f,
    transfer_witness,
    verify_f_reduction,
    verify_fcr_reduction,
)
from .report import Report, dump_json, strip_timings
from .harness import SuiteConfig, fit_runtime, run_suite
from .catalog import build_catalog

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Pair",
    "PolylogBound",
    "encode_pair",
    "decode_pair",
    "pack_at",
    "split_packed",
    "CrFactorization",
    "FactoredLanguage",
    "apply_factorization",
    "identity_factorization",
    "packed_factorization",
    "verify_factorization",
    "PreprocessingWitness",
    "verify_witness",
    "digest_size_ladder",
    "FcrReduction",
    "FReduction",
    "verify_fcr_reduction",
    "verify_f_reduction",
    "compose_fcr",
    "transfer_witness",
    "pullback_witness_f",
    "hardness_pack",
    "Report",
    "dump_json",
    "strip_timings",
    "SuiteConfig",
    "run_suite",
    "fit_runtime",
    "build_catalog",
    "__version__",
]
