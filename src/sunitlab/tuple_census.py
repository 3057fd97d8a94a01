"""Census of prime-tuple product congruences.

Counts ordered tuples (p_1, ..., p_k, q_1, ..., q_l) with each p_i a prime in
(y/2, y], each q_j a prime in (y/4, y/2], and

    p_1 * ... * p_k == 1  (mod q_1 * ... * q_l).

Exposes an exact counter built on per-modulus residue folding, a brute-force
direct counter for cross-checks, a Monte Carlo estimator, and the exact
rational main/error reference terms the count is compared against.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityError, ValidationError
from .prime_tools import PrimeStats, interval_stats

MODULUS_LIMIT = 2**31
DIRECT_OP_LIMIT = 50_000_000
FOLD_OP_LIMIT = 200_000_000


@dataclass(frozen=True)
class CensusParams:
    """Parameters of one census instance.

    ``enforce_range`` asks for a hard failure when k falls outside the regime
    k <= y^(1/3) / (log y)^2 in which the reference error bound is justified;
    by default the instance is still computed and merely flagged.
    """

    y: float
    k: int
    ell: int
    enforce_range: bool = False

    def __post_init__(self) -> None:
        if not self.y >= 2:  # also refuses nan
            raise ValidationError(f"need y >= 2, got y={self.y}")
        if not (1 <= self.ell <= self.k):
            raise ValidationError(
                f"need 1 <= ell <= k, got k={self.k}, ell={self.ell}"
            )
        if self.enforce_range and not self.in_hypothesis:
            raise ValidationError(
                f"k={self.k} outside supported range at y={self.y}: "
                f"need k <= y^(1/3)/(log y)^2 = {self.k_bound():.3f}"
            )

    def k_bound(self) -> float:
        return self.y ** (1 / 3) / math.log(self.y) ** 2

    @property
    def in_hypothesis(self) -> bool:
        return self.k <= self.k_bound()


@dataclass(frozen=True)
class ErrorTerm:
    """Reference error bound l^(k-l) * (4*lambda*P)^l * y^(k/2).

    ``applicable`` records whether (k, l) sits in the regime k/4 <= l <= k/2
    where the bound is proved; the value is reported either way.  ``exact``
    is the bound as a Fraction when y^(k/2) is rational (k even), else None.
    """

    applicable: bool
    value: float
    exact: Fraction | None
    note: str = ""


@dataclass(frozen=True)
class CensusResult:
    count: int | float
    main_term: Fraction
    error_bound: ErrorTerm
    ratio: float | None
    method: str
    in_hypothesis: bool
    empty_interval: bool
    std_error: float | None = None


def main_term(params: CensusParams, stats: PrimeStats | None = None) -> Fraction:
    """Exact rational main term lambda^l * P^k."""
    st = stats or interval_stats(params.y)
    return st.recip_sum**params.ell * Fraction(st.prime_count) ** params.k


def error_term(params: CensusParams, stats: PrimeStats | None = None) -> ErrorTerm:
    """Reference error bound for the census, with its regime flag."""
    st = stats or interval_stats(params.y)
    k, ell = params.k, params.ell
    lam, big_p = st.recip_sum, st.prime_count
    applicable = 4 * ell >= k and 2 * ell <= k
    base = Fraction(ell) ** (k - ell) * (4 * lam * big_p) ** ell
    if k % 2 == 0:
        y_half = Fraction(params.y) ** (k // 2)
        exact: Fraction | None = base * y_half
        value = float(exact)
    else:
        exact = None
        value = float(base) * params.y ** (k / 2)
    note = "" if applicable else f"outside regime k/4 <= l <= k/2 for k={k}, l={ell}"
    return ErrorTerm(applicable=applicable, value=value, exact=exact, note=note)


def _modulus_multisets(primes: tuple[int, ...], t: int):
    """Yield (product, multiset, ordered-tuple weight) per multiset of t primes.

    The weight is the multinomial count of ordered tuples realizing the
    multiset, so summing weighted per-multiset counts reproduces the ordered
    count.  This is the one place the multinomial weight is computed.
    """
    fact_t = math.factorial(t)
    for combo in itertools.combinations_with_replacement(primes, t):
        weight = fact_t
        for mult in Counter(combo).values():
            weight //= math.factorial(mult)
        yield math.prod(combo), combo, weight


def _census_result(
    params: CensusParams, st: PrimeStats, method: str, count, empty=(0, None)
) -> CensusResult:
    """One census record: main and error terms, ratio, empty-interval flag.

    ``count()`` returns (count, std_error) and runs only when the modulus
    range holds primes; otherwise the record carries ``empty`` instead.
    """
    mt = main_term(params, st)
    et = error_term(params, st)
    value, std_error = count() if st.modulus_primes else empty
    return CensusResult(
        count=value, main_term=mt, error_bound=et,
        ratio=value / float(mt) if mt else None, method=method,
        in_hypothesis=params.in_hypothesis,
        empty_interval=not st.modulus_primes, std_error=std_error,
    )


def _count_products_congruent_one(
    p_primes: tuple[int, ...], k: int, m: int, op_limit: int = FOLD_OP_LIMIT
) -> int:
    """Number of ordered k-tuples of p_primes whose product is 1 mod m.

    Folds the residue distribution of one factor k-1 times; the last fold is
    read off via modular inverses instead of a full convolution, which is the
    difference between minutes and hours at interesting sizes.  Every p is
    coprime to m here (the p and q intervals are disjoint), so the inverses
    exist.
    """
    base = Counter(p % m for p in p_primes)
    if k == 1:
        return base.get(1 % m, 0)
    dist = base
    for _ in range(k - 2):
        if len(dist) * len(base) > op_limit:
            raise CapacityError(
                f"residue fold size {len(dist)}x{len(base)} exceeds {op_limit} ops"
            )
        nxt: Counter[int] = Counter()
        for r, c in dist.items():
            for s, d in base.items():
                nxt[r * s % m] += c * d
        dist = nxt
    total = 0
    for s, d in base.items():
        total += d * dist.get(pow(s, -1, m), 0)
    return total


def count_exact(params: CensusParams, stats: PrimeStats | None = None) -> CensusResult:
    """Exact ordered census via per-modulus residue folding."""
    st = stats or interval_stats(params.y)

    def count():
        census = census_over(st.product_primes, st.modulus_primes, params.k, params.ell)
        return census, None

    return _census_result(params, st, "residue-dp", count)


def census_over(
    p_primes: tuple[int, ...], q_primes: tuple[int, ...], k: int, ell: int
) -> int:
    """Ordered census over explicit prime lists (the engine under count_exact)."""
    total = 0
    for m, _combo, weight in _modulus_multisets(tuple(q_primes), ell):
        if m > MODULUS_LIMIT:
            raise CapacityError(f"modulus {m} exceeds limit {MODULUS_LIMIT}")
        total += weight * _count_products_congruent_one(tuple(p_primes), k, m)
    return total


def count_direct(params: CensusParams, stats: PrimeStats | None = None) -> CensusResult:
    """Reference counter: enumerate every ordered tuple.  Only for tiny inputs."""
    st = stats or interval_stats(params.y)
    p_primes, q_primes = st.product_primes, st.modulus_primes

    def count():
        ops = len(p_primes) ** params.k * len(q_primes) ** params.ell
        if ops > DIRECT_OP_LIMIT:
            raise CapacityError(
                f"direct enumeration needs {ops} tuple visits, over {DIRECT_OP_LIMIT}"
            )
        hits = 0
        for qs in itertools.product(q_primes, repeat=params.ell):
            m = math.prod(qs)
            for ps in itertools.product(p_primes, repeat=params.k):
                if math.prod(ps) % m == 1:
                    hits += 1
        return hits, None

    return _census_result(params, st, "direct", count)


def count_sampled(
    params: CensusParams,
    samples: int,
    seed: int,
    stats: PrimeStats | None = None,
) -> CensusResult:
    """Monte Carlo census estimate from uniform ordered tuples.

    Deterministic for a fixed seed.  The reported std_error is the sample
    standard error of the scaled indicator mean.
    """
    if samples < 1:
        raise ValidationError(f"need samples >= 1, got {samples}")
    st = stats or interval_stats(params.y)
    p_primes, q_primes = st.product_primes, st.modulus_primes

    def count():
        rng = random.Random(seed)
        hits = 0
        for _ in range(samples):
            m = math.prod(rng.choice(q_primes) for _ in range(params.ell))
            r = 1
            for _ in range(params.k):
                r = r * rng.choice(p_primes) % m
            if r == 1:
                hits += 1
        space = len(q_primes) ** params.ell * len(p_primes) ** params.k
        p_hat = hits / samples
        std_error = space * math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
        return p_hat * space, std_error

    return _census_result(params, st, "sampled", count, empty=(0.0, 0.0))


@dataclass(frozen=True)
class RepresentationTable:
    """Counts a_t(n) of ordered t-tuples of product-range primes with product n."""

    t: int
    y: float
    counts: dict[int, int] = field(repr=False)
    total: int = 0
    max_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", sum(self.counts.values()))
        object.__setattr__(
            self, "max_count", max(self.counts.values(), default=0)
        )


def representation_counts(
    t: int, y: float, cap: int = 5_000_000, stats: PrimeStats | None = None
) -> RepresentationTable:
    """Tabulate a_t(n) over products of t primes from (y/2, y].

    Enumerates multisets and assigns each the multinomial number of ordered
    arrangements; distinct multisets give distinct products by unique
    factorization, so no collisions occur.
    """
    if t < 1:
        raise ValidationError(f"need t >= 1, got {t}")
    st = stats or interval_stats(y)
    p_primes = st.product_primes
    size = math.comb(len(p_primes) + t - 1, t)
    if size > cap:
        raise CapacityError(f"{size} multisets exceeds cap {cap}")
    counts = {n: w for n, _combo, w in _modulus_multisets(p_primes, t)}
    return RepresentationTable(t=t, y=y, counts=counts)
