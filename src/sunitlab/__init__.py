"""Prime-product congruence census and consecutive-smooth-pair construction.

Modules:
  prime_tools      prime intervals, interval statistics, factorization
  tuple_census     congruence engine; exact/direct/sampled census of its count
  monte_carlo      the draws of the sampled census, loaded only when it runs
  character_lab    Dirichlet characters, large sieve and moment checks
  constructor      parameter planning, pigeonhole, prime set assembly
  smooth_verifier  independent smoothness oracle
  cli_report       command-line front end and report serialization

The names in __all__ are imported from their modules on first use (PEP 562),
so importing the package loads no engine and no numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": (
        "CapacityError", "FactorizationError", "SUnitError", "ToleranceError",
        "ValidationError", "VerificationError",
    ),
    "prime_tools": (
        "PrimeInterval", "PrimeStats", "factorize", "interval_stats", "is_prime", "sieve_interval",
    ),
    "smooth_verifier": ("SmoothPair", "enumerate_smooth_pairs", "factor_over", "verify_solution"),
    "tuple_census": (
        "CensusParams", "CensusResult", "count_direct", "count_exact", "count_sampled",
        "error_term", "main_term", "representation_counts",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME_OF, "__version__"])


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_HOME_OF])
