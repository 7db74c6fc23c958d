"""Cyclic integer codes, slime migration, and explicit necklace bijections."""

from .bijection import (
    BijectionTable,
    RiwiMap,
    Tally,
    build_sigma,
    load_riwi_map,
    prime_bijection,
    riwi_from_pairs,
    riwi_rotation,
    riwi_slime,
    verify_riwi,
)
from .certify import CHECKS, Certificate, Envelope, run_cell, run_sweep, summarize
from .codes import Code, divisors, enumerate_codes, is_prime
from .necklaces import (
    Necklace,
    canonicalize,
    code_to_word,
    count_necklaces,
    enumerate_necklaces,
    euler_phi,
    word_to_code,
)
from .slime import (
    InvalidCodeError,
    NonCoprimeWeightError,
    Slime,
    SlimeDecomposition,
    decompose,
    migrate_backward,
    migrate_forward,
    unit_migration,
    unit_migration_inverse,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "BijectionTable",
    "CHECKS",
    "Certificate",
    "Code",
    "Envelope",
    "InvalidCodeError",
    "Necklace",
    "NonCoprimeWeightError",
    "RiwiMap",
    "Slime",
    "SlimeDecomposition",
    "Tally",
    "build_sigma",
    "canonicalize",
    "code_to_word",
    "count_necklaces",
    "decompose",
    "divisors",
    "enumerate_codes",
    "enumerate_necklaces",
    "euler_phi",
    "is_prime",
    "load_riwi_map",
    "migrate_backward",
    "migrate_forward",
    "prime_bijection",
    "riwi_from_pairs",
    "riwi_rotation",
    "riwi_slime",
    "run_cell",
    "run_sweep",
    "summarize",
    "unit_migration",
    "unit_migration_inverse",
    "verify_riwi",
    "weight",
    "word_to_code",
]
