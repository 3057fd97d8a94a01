"""Prime-product congruence census and consecutive-smooth-pair construction.

Modules:
  prime_tools      prime intervals, interval statistics, factorization
  tuple_census     congruence engine; exact/direct/sampled census of its count
  character_lab    Dirichlet characters, large sieve and moment checks
  constructor      parameter planning, pigeonhole, prime set assembly
  smooth_verifier  independent smoothness oracle
  cli_report       command-line front end and report serialization
"""

from .errors import (
    CapacityError,
    FactorizationError,
    SUnitError,
    ToleranceError,
    ValidationError,
    VerificationError,
)
from .prime_tools import PrimeInterval, PrimeStats, factorize, interval_stats, is_prime, sieve_interval
from .smooth_verifier import SmoothPair, enumerate_smooth_pairs, factor_over, verify_solution
from .tuple_census import (
    CensusParams,
    CensusResult,
    count_direct,
    count_exact,
    count_sampled,
    error_term,
    main_term,
    representation_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CensusParams",
    "CensusResult",
    "FactorizationError",
    "PrimeInterval",
    "PrimeStats",
    "SUnitError",
    "SmoothPair",
    "ToleranceError",
    "ValidationError",
    "VerificationError",
    "__version__",
    "count_direct",
    "count_exact",
    "count_sampled",
    "enumerate_smooth_pairs",
    "error_term",
    "factor_over",
    "factorize",
    "interval_stats",
    "is_prime",
    "main_term",
    "representation_counts",
    "sieve_interval",
    "verify_solution",
]
