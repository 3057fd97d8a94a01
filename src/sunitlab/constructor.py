"""Pipeline from census parameters to a prime set rich in consecutive smooth pairs.

The chain: pick exponents (alpha, beta) and derive tuple lengths (k, ell);
list the congruence solutions product == 1 (mod modulus) over prime multisets
with the congruence engine of tuple_census (by modulus, or by quotient when
k = ell), which bounds its work by tuple_census.PAIR_OP_LIMIT; pigeonhole the
quotients u = (product - 1)/modulus to find a popular value u0; take S =
primes in (y/4, y] together with the prime factors of u0.  Every pair with
quotient u0 then gives consecutive S-smooth integers a = modulus * u0 and
c = product.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, VerificationError, check_capacity
from .prime_tools import _MR_VALID_BELOW, TRIAL_DIVISION_BOUND, factorize, interval_stats
from .smooth_verifier import SmoothPair, verify_solution
from .tuple_census import CensusParams, _ordered_count, congruence_solutions, main_term

DEFAULT_ALPHA = Fraction(1, 3)
DEFAULT_BETA = Fraction(1, 4)
# The most bits the least possible quotient u0 may have.  factorize certifies
# the part of u0 free of primes up to TRIAL_DIVISION_BOUND only below
# _MR_VALID_BELOW, so past this a u0 factors only if 16 or more of its prime
# factors (with multiplicity) are at most TRIAL_DIVISION_BOUND; an integer has
# about 3.8 on average.  In a sweep of construct over y = 5..14, no u0 past 252
# bits factored, and trial division spent 0.5 to 3 s on each before it failed
U0_BITS_LIMIT = (_MR_VALID_BELOW * TRIAL_DIVISION_BOUND**16).bit_length()


@dataclass(frozen=True)
class ConstraintReport:
    """Exact evaluation of the two exponent constraints.

    product_rule: (1 - alpha)(1 - beta) >= 1/2 keeps the smooth numbers
    large enough; exponent_rule: alpha(1 - beta) >= beta keeps the quotient
    u0 small enough.  Defaults alpha=1/3, beta=1/4 meet the first with
    equality and the second with equality as well.
    """

    product_value: Fraction
    product_ok: bool
    exponent_value: Fraction
    exponent_ok: bool

    @property
    def ok(self) -> bool:
        return self.product_ok and self.exponent_ok


@dataclass(frozen=True)
class ExponentPlan:
    alpha: Fraction
    beta: Fraction
    k: int
    ell: int
    raw_k: float
    k_clamped: bool
    ell_clamped: bool
    constraints: ConstraintReport


def plan_parameters(
    y: float,
    alpha: Fraction | int | str = DEFAULT_ALPHA,
    beta: Fraction | int | str = DEFAULT_BETA,
    k: int | None = None,
    ell: int | None = None,
    enforce_range: bool = False,
) -> ExponentPlan:
    """Choose tuple lengths k = y^beta/(10 log y), ell = alpha*k, clamped for small y.

    At desk scale the raw k is far below 1, so the floors k >= 2, ell >= 1
    keep the pipeline running; the clamp flags make that visible.  Explicit k
    or ell overrides skip the corresponding derivation.
    """
    if not 10 <= y < math.inf:  # also refuses nan
        raise ValidationError(f"need finite y >= 10 for parameter planning, got {y}")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not (0 <= alpha <= Fraction(1, 2)):
        raise ValidationError(f"need 0 <= alpha <= 1/2, got {alpha}")
    if beta <= 0:
        raise ValidationError(f"need beta > 0, got {beta}")
    if enforce_range:
        cap = Fraction(1, 3) - Fraction(math.log(math.log(y)) / math.log(y))
        if beta > cap:
            raise ValidationError(
                f"beta = {beta} exceeds the supported range bound "
                f"1/3 - loglog y/log y = {float(cap):.4f} at y = {y}"
            )

    constraints = ConstraintReport(
        product_value=(1 - alpha) * (1 - beta),
        product_ok=(1 - alpha) * (1 - beta) >= Fraction(1, 2),
        exponent_value=alpha * (1 - beta),
        exponent_ok=alpha * (1 - beta) >= beta,
    )
    if not constraints.ok and k is None and ell is None:
        raise ValidationError(
            f"exponents alpha={alpha}, beta={beta} fail the plan constraints "
            f"((1-a)(1-b) = {constraints.product_value} vs 1/2; "
            f"a(1-b) = {constraints.exponent_value} vs b = {beta}) "
            "and no explicit k, ell were given"
        )

    raw_k = y ** float(beta) / (10 * math.log(y))
    if k is None:
        k_derived = max(2, math.floor(raw_k))
        k_clamped = math.floor(raw_k) < 2
    else:
        k_derived, k_clamped = k, False
    if ell is None:
        floor_ell = math.floor(alpha * k_derived)
        ell_derived = max(1, floor_ell)
        ell_clamped = floor_ell < 1
    else:
        ell_derived, ell_clamped = ell, False
    if not (1 <= ell_derived <= k_derived):
        raise ValidationError(
            f"need 1 <= ell <= k, got k={k_derived}, ell={ell_derived}"
        )
    return ExponentPlan(
        alpha=alpha,
        beta=beta,
        k=k_derived,
        ell=ell_derived,
        raw_k=raw_k,
        k_clamped=k_clamped,
        ell_clamped=ell_clamped,
        constraints=constraints,
    )


@dataclass(frozen=True)
class CongruencePair:
    """One unordered congruence solution, a row of CongruencePairs.

    product == 1 (mod modulus): product is a product of k primes from (y/2, y]
    (multiset recorded in product_factors), modulus a product of ell primes
    from (y/4, y/2], and quotient = (product - 1) // modulus, an integer.
    """

    product: int
    modulus: int
    quotient: int
    product_factors: tuple[int, ...]
    modulus_factors: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class CongruencePairs:
    """The congruence pairs as columns, one row per pair, sorted by (modulus,
    product).  r_rows (n x k) and m_rows (n x ell) index each pair's product
    and modulus multisets into p_primes and q_primes; products, moduli and
    quotients are int64, or Python ints past int64 (congruence_solutions).
    Iteration builds a CongruencePair per row.
    """

    p_primes: Sequence[int]
    q_primes: Sequence[int]
    r_rows: np.ndarray
    m_rows: np.ndarray
    products: np.ndarray
    moduli: np.ndarray
    quotients: np.ndarray

    def __len__(self) -> int:
        return len(self.products)

    def __iter__(self):
        factors = np.asarray(self.p_primes)[self.r_rows], np.asarray(self.q_primes)[self.m_rows]
        columns = (self.products, self.moduli, self.quotients, *factors)
        for r, m, u, r_combo, m_combo in zip(*(column.tolist() for column in columns)):
            yield CongruencePair(r, m, u, tuple(r_combo), tuple(m_combo))


def solve_congruence_pairs(y: float, k: int, ell: int) -> CongruencePairs:
    """All unordered (product multiset, modulus multiset) pairs with the congruence.

    Each congruence solution appears once; the ordered census counts it up to
    k! * ell! times, so len(result) >= census / (k! * ell!).  Exact division
    and the quotient range bound quotient < 4^ell * y^(k-ell) are checked in
    bulk on every listed pair, and the first pair failing either is named.
    """
    st = interval_stats(y)
    p_primes, q_primes = st.product_primes, st.modulus_primes
    r_rows, m_rows, products, moduli = congruence_solutions(p_primes, q_primes, k, ell, listing=True)
    quotients, rests = (products - 1) // moduli, (products - 1) % moduli
    quotient_cap = 4**ell * Fraction(y) ** (k - ell)
    bad = np.flatnonzero((rests != 0) | (quotients > math.floor(quotient_cap)))
    if len(bad):
        r, m = int(products[bad[0]]), int(moduli[bad[0]])
        raise VerificationError(
            f"pair ({r}, {m}) has (r - 1)/m = {Fraction(r - 1, m)}, not an integer "
            f"within the range bound {quotient_cap}; enumeration bug"
        )
    return CongruencePairs(p_primes, q_primes, r_rows, m_rows, products, moduli, quotients)


@dataclass(frozen=True)
class ResidueHistogram:
    """The pigeonhole step over the pair quotients, as the report writes it; ``top``
    holds the ten most common (quotient, multiplicity), then by value."""

    total: int
    distinct: int
    pigeonhole_floor: int
    popular: int
    multiplicity: int
    top: tuple[tuple[int, int], ...]
    pigeonhole_holds: bool


def popular_residue(quotients) -> ResidueHistogram:
    """Pigeonhole step over the quotient column: the quotient most pairs share (ties: smallest).

    The returned multiplicity always satisfies the exact pigeonhole bound
    multiplicity >= ceil(total / distinct).
    """
    if not len(quotients):
        raise ValidationError("no congruence pairs: popular residue undefined")
    values, counts = np.unique(quotients, return_counts=True)
    order = np.argsort(-counts, kind="stable")[:10]  # ties keep the ascending values
    top = tuple(zip(values[order].tolist(), counts[order].tolist()))
    (popular, multiplicity), floor = top[0], math.ceil(len(quotients) / len(values))
    return ResidueHistogram(
        total=len(quotients), distinct=len(values), pigeonhole_floor=floor, popular=popular,
        multiplicity=multiplicity, top=top, pigeonhole_holds=multiplicity >= floor,
    )


def lower_bound_estimate(y: float, k: int, ell: int) -> float:
    """Analytic lower bound for the popular multiplicity.

    Half the main term, spread over unordered pairs (k! * ell!) and quotient
    values (4^ell * y^(k-ell)).  Meaningful only in the asymptotic regime; at
    desk scale it is a diagnostic to report next to the actual multiplicity.
    """
    main = main_term(CensusParams(y, k, ell))
    denom = (
        2
        * math.factorial(k)
        * math.factorial(ell)
        * 4**ell
        * Fraction(y) ** (k - ell)
    )
    return float(main / denom)


@dataclass(frozen=True)
class AssembledSet:
    """The prime set S and its size diagnostics.

    factor_count_reference = log(u0)/loglog(u0) bounds the number of distinct
    prime factors u0 can contribute (up to a constant); size_reference =
    y/log y bounds |S| the same way.  Both are recorded ratios, not asserts.
    """

    y: float
    u0: int
    primes: tuple[int, ...]
    size: int
    u0_factors: dict[int, int]
    factor_count_reference: float | None
    size_reference: float


def assemble_set(y: float, u0: int) -> AssembledSet:
    """S = primes in (y/4, y], the two ranges of interval_stats(y), with the prime factors of u0."""
    if u0 < 1:
        raise ValidationError(f"need u0 >= 1, got {u0}")
    st = interval_stats(y)
    u0_factors = factorize(u0)
    primes = tuple(sorted({*st.modulus_primes, *st.product_primes, *u0_factors}))
    loglog = math.log(math.log(u0)) if u0 >= 3 else 0.0
    return AssembledSet(
        y=y,
        u0=u0,
        primes=primes,
        size=len(primes),
        u0_factors=u0_factors,
        factor_count_reference=math.log(u0) / loglog if loglog > 0 else None,
        size_reference=y / math.log(y),
    )


@dataclass(frozen=True)
class ConstructionResult:
    """Verified output of one full construction run."""

    u0: int
    multiplicity: int
    prime_set: tuple[int, ...]
    size: int
    solutions: tuple[SmoothPair, ...]
    benchmark_conservative: float | None
    benchmark_headline: float | None


def solution_count_benchmarks(s: int) -> tuple[float | None, float | None]:
    """Asymptotic solution-count benchmarks at set size s.

    conservative: exp(s^(1/4) / (10 (log s)^(3/4))); headline:
    exp(s^(1/4)/log s).  Undefined (None) for s < 2.
    """
    if s < 2:
        return None, None
    root = s**0.25
    log_s = math.log(s)
    return math.exp(root / (10 * log_s**0.75)), math.exp(root / log_s)


def count_solutions_for_u0(pairs: CongruencePairs, assembled: AssembledSet) -> ConstructionResult:
    """Emit and verify the consecutive smooth pair for every pair with quotient u0 = assembled.u0.

    a = modulus * u0 and c = product satisfy a + 1 = c; both must factor over
    S = assembled.primes.  A verification failure here means an internal bug,
    so it aborts hard rather than dropping the solution.  Only the rows with
    quotient u0 are read out of the columns, in their order: by modulus, so by a.
    """
    u0 = assembled.u0
    solutions = []
    rows = pairs.quotients == u0
    for c, m in zip(pairs.products[rows].tolist(), pairs.moduli[rows].tolist()):
        a = m * u0
        if a + 1 != c:
            raise VerificationError(f"pair ({c}, {m}): a+1 = {a + 1} != c = {c}")
        cert = verify_solution(a, assembled.primes)
        if not cert.ok:
            raise VerificationError(f"solution ({a}, {c}) is not smooth over S = {assembled.primes}")
        solutions.append(SmoothPair(a, c, cert.factorization_a, cert.factorization_c))
    conservative, headline = solution_count_benchmarks(assembled.size)
    return ConstructionResult(
        u0=u0,
        multiplicity=len(solutions),
        prime_set=assembled.primes,
        size=assembled.size,
        solutions=tuple(solutions),
        benchmark_conservative=conservative,
        benchmark_headline=headline,
    )


@dataclass(frozen=True)
class ConstructionRun:
    """Every stage of one construction run.  plan is None when both lengths were
    given; with no congruence pairs, histogram, assembled and result are None."""

    k: int
    ell: int
    plan: ExponentPlan | None
    pairs: CongruencePairs
    census: int
    histogram: ResidueHistogram | None
    assembled: AssembledSet | None
    result: ConstructionResult | None


def run_construction(y: float, k: int | None = None, ell: int | None = None, **plan) -> ConstructionRun:
    """The construction pipeline: lengths, pairs, census check, pigeonhole, verified S.

    plan_parameters plans missing lengths from the plan arguments (alpha,
    beta, enforce_range); alpha or beta with both lengths given is refused,
    and enforce_range holds both lengths to the census range k <= y^(1/3) /
    (log y)^2, as CensusParams does.  Quotients past U0_BITS_LIMIT bits are
    refused before the pair search.  The listed pairs must weigh exactly the
    ordered census.
    """
    if k is None or ell is None:
        chosen = plan_parameters(y, k=k, ell=ell, **plan)
        k, ell = chosen.k, chosen.ell
    else:
        chosen = None
        unread = [name for name in ("alpha", "beta") if plan.get(name) is not None]
        if unread:
            raise ValidationError(f"k and ell are both given, so nothing reads {' and '.join(unread)}")
        CensusParams(y, k, ell, enforce_range=bool(plan.get("enforce_range")))

    st = interval_stats(y)
    if st.product_primes and st.modulus_primes:
        # every quotient is at least (min p^k - 1) / max q^ell
        least = k * math.log2(min(st.product_primes)) - ell * math.log2(max(st.modulus_primes))
        check_capacity("bits of every quotient u0: at least {}", math.floor(least) + 1, U0_BITS_LIMIT)
    pairs = solve_congruence_pairs(y, k, ell)
    census = congruence_solutions(st.product_primes, st.modulus_primes, k, ell)
    listed = _ordered_count(pairs.r_rows, pairs.m_rows, pairs.products.dtype)
    if listed != census:
        raise VerificationError(
            f"the {len(pairs)} listed pairs stand for {listed} ordered tuples, "
            f"the census counts {census}"
        )
    hist = assembled = result = None
    if pairs:
        hist = popular_residue(pairs.quotients)
        assembled = assemble_set(y, hist.popular)
        result = count_solutions_for_u0(pairs, assembled)
    return ConstructionRun(k, ell, chosen, pairs, census, hist, assembled, result)
