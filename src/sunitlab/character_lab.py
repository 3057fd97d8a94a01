"""Dirichlet characters mod m and the analytic cross-checks built on them.

A character mod m is an exponent vector c over generators g_1..g_r of the
unit group, of orders o_1..o_r, with chi_c(g_j) = exp(2*pi*i*c_j/o_j).  The
discrete log d(n) of a unit n is a point of the grid Z/o_1 x ... x Z/o_r and

    chi_c(n) = exp(2*pi*i * sum_j c_j*d_j(n)/o_j),

so the sums S_chi = sum_n a_n chi(n) for all phi(m) characters at once are
one inverse DFT of the coefficients placed on that grid
(``CharacterTable.sums``).  Primitivity is read off the local components of
c (``CharacterTable.primitive_mask``).  Every census, large-sieve, moment and
tail quantity below comes from that one transform; explicit tolerances guard
each place a float is rounded back to an integer.  The slow reference for
the transform and the mask (single character values and restriction-test
conductors) lives with the test oracles.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError, ToleranceError, ValidationError, check_capacity, check_power_capacity, finite_float,
)
from .prime_tools import (
    PrimeStats,
    _divisors,
    _mobius,
    _phi,
    _phi_of_multiset,
    _primitive_root,
    factorize,
    interval_stats,
)
from .tuple_census import (
    CensusParams,
    RepresentationTable,
    _census_result,
    _check_multisets,
    _modulus_multisets,
    congruence_solutions,
    main_term,
    representation_counts,
)

CHARACTER_COUNT_LIMIT = 2**53
CHARACTER_MODULUS_LIMIT = 1_000_000
CHARACTER_WORK_LIMIT = 100_000_000
QT_LIMIT = 2_000_000
SIEVE_TRIALS_LIMIT = 10_000
# ranges of the random large-sieve instances: length, modulus, family bound
SIEVE_MAX_LENGTH = 50
SIEVE_MAX_MODULUS = 101
SIEVE_MAX_BOUND = 20

IDENTITY_TOL = 1e-9
ROUNDING_TOL = 1e-2


def _prime_power_generators(p: int, e: int) -> list[tuple[int, int, bool]]:
    """Generators (residue, order, local) of the unit group mod p**e.

    A character of Z/p^e is primitive iff p does not divide the exponent of
    every generator flagged local; only -1 mod 2^e (e >= 3) is unflagged.
    """
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2, True)]
        return [(2**e - 1, 2, False), (5, 2 ** (e - 2), True)]
    g = _primitive_root(p)
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p  # the lift that stays a generator mod every power
    return [(g % p**e, p ** (e - 1) * (p - 1), True)]


class CharacterTable:
    """All phi(m) characters mod m: generator orders, discrete logs, primitive mask.

    Characters and units are both indexed by the C-order flat index of their
    exponent (log) vector on the grid of generator orders.  ``dlog[n]`` is
    that index for n in [0, m), or -1 when gcd(n, m) > 1;
    ``primitive_mask[i]`` says whether character i is primitive.  Build
    tables through ``character_table``, which caches them.
    """

    def __init__(self, modulus: int):
        self.modulus = modulus
        orders: list[int] = []
        units = np.array([1 % modulus], dtype=np.int64)
        # m = 2 mod 4 has no primitive characters: the factor 2 is never primitive
        mask = np.array([modulus % 4 != 2])
        for p, e in factorize(modulus).items():
            pe = p**e
            cofactor = modulus // pe
            for g, order, local in _prime_power_generators(p, e):
                # CRT: equal to g mod p^e and to 1 mod the cofactor
                lifted = (g + pe * ((1 - g) * pow(pe, -1, cofactor) % cofactor)) % modulus
                orders.append(order)
                powers = [1]
                for _ in range(order - 1):
                    powers.append(powers[-1] * lifted % modulus)
                units = np.multiply.outer(units, powers).ravel() % modulus
                exps = np.arange(order)
                local_mask = exps % p != 0 if local else exps >= 0
                mask = np.logical_and.outer(mask, local_mask).ravel()
        self.orders = tuple(orders)
        self.totient = math.prod(self.orders)
        self.primitive_mask = mask

        dlog = np.full(modulus, -1, dtype=np.int64)
        dlog[units] = np.arange(len(units))
        found = int(np.count_nonzero(dlog >= 0))
        if found != self.totient:
            raise ValidationError(
                f"unit group mod {modulus}: built {found} discrete logs, "
                f"expected {self.totient}"
            )
        self.dlog = dlog

    def sums(self, ns, coefficients) -> np.ndarray:
        """S_chi = sum_n a_n chi(n) for every chi mod m, in table order.

        Places each a_n at dlog(n) on the grid of generator orders and returns
        phi(m) times its inverse DFT.  Terms with gcd(n, m) > 1 drop out.
        """
        index = self.dlog[np.asarray(ns, dtype=np.int64) % self.modulus]
        units = index >= 0
        grid = np.zeros(self.totient, dtype=complex)
        np.add.at(grid, index[units], np.asarray(coefficients, dtype=complex)[units])
        return self.totient * np.fft.ifftn(grid.reshape(self.orders or (1,))).ravel()


_cached_table = lru_cache(maxsize=256)(CharacterTable)


def character_table(m: int) -> CharacterTable:
    """The character table mod m, cached; m is checked on every call."""
    if m < 1:
        raise ValidationError(f"need modulus >= 1, got {m}")
    check_capacity("character table modulus {}", m, CHARACTER_MODULUS_LIMIT)
    return _cached_table(m)


def _prime_sums(table: CharacterTable, st: PrimeStats) -> np.ndarray:
    """S_chi = sum of chi(p) over the product-range primes p, for every chi mod m."""
    return table.sums(st.product_primes, np.ones(len(st.product_primes)))


def _primitive_power_sum(table: CharacterTable, sums: np.ndarray, k: int) -> float:
    """Sum over the primitive characters chi mod m of |S_chi|^k (inf past the double range)."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(sums[table.primitive_mask]) ** k))


def _check_character_work(st: PrimeStats, ts) -> None:
    """Refuse, before any table is built, work over Q_t for t in ts that
    transforms more than CHARACTER_WORK_LIMIT grid points in all.

    A table mod q has phi(q) points, and the sum of phi(q) over Q_t is the
    x^t coefficient of the product over modulus primes p of
    1 + (p-1)x/(1 - px), because phi(p^e) = p^(e-1)(p-1).  Every q in Q_t
    has phi(q) >= 2^(t-1), so no degree past the cap's bit length is expanded.
    """
    top = max(ts, default=0)
    if st.modulus_primes and top > CHARACTER_WORK_LIMIT.bit_length():
        raise CapacityError(
            f"character tables over Q_{top} hold at least 2^{top - 1} points "
            f"(phi(q) >= 2^(t-1)), over the cap {CHARACTER_WORK_LIMIT}"
        )
    coeffs = [1] + [0] * top
    for p in st.modulus_primes:
        tail = 0  # coefficients of coeffs/(1 - px), one degree behind
        for d, c in enumerate(coeffs):
            tail, coeffs[d] = c + p * tail, c + (p - 1) * tail
    total = sum(coeffs[t] for t in ts)
    what = f"character tables over Q_t, t in {list(ts)}, hold {{}} points (sum of phi(q))"
    check_capacity(what, total, CHARACTER_WORK_LIMIT)


def _class_moments(t: int, y: float, k: int) -> list[tuple[int, float]]:
    """(q, sum over primitive chi mod q of |S_chi|^k) for every q in Q_t."""
    st = interval_stats(y)
    moments = []
    for q in enumerate_Qt(t, y).moduli:
        table = character_table(q)
        moments.append((q, _primitive_power_sum(table, _prime_sums(table, st), k)))
    return moments


def census_via_characters(params: CensusParams):
    """Census recomputed by character orthogonality; must equal count_exact.

    For each modulus m = q_1*...*q_l the tuple count with product 1 mod m is
    (1/phi(m)) * sum over chi mod m of S_chi^k.  The float accumulation is
    rounded to the nearest integer under a 10^-2 guard.  The P^k * Q^l
    ordered tuples bound the count and every |S_chi|^k; past
    CHARACTER_COUNT_LIMIT = 2^53 a double no longer holds every integer, so
    such runs are refused before any table is built.
    """
    st = interval_stats(params.y)
    p, q, k, ell = st.prime_count, len(st.modulus_primes), params.k, params.ell
    what = f"character census over P^k * Q^l = {p}^{k} * {q}^{ell} = {{}} ordered tuples"
    check_power_capacity(what, ((p, k), (q, ell)), CHARACTER_COUNT_LIMIT)
    _check_character_work(st, [ell])

    def count():
        total = 0j
        for m, _combo, weight in _modulus_multisets(st.modulus_primes, ell):
            table = character_table(m)
            total += weight * complex(np.sum(_prime_sums(table, st) ** k)) / table.totient
        rounded = round(total.real)
        if abs(total - rounded) >= ROUNDING_TOL:
            raise ToleranceError(
                f"character census {total} strays {abs(total - rounded):.3g} "
                f"from integer {rounded}; guard is {ROUNDING_TOL}"
            )
        return rounded, None

    return _census_result(params, "characters", count)


def principal_contribution(params: CensusParams) -> Fraction:
    """Exact rational principal-character part: sum over tuples of P^k/phi(m).

    Walks Q_ell, so its ell prime factors per modulus count against QT_LIMIT.
    """
    st = interval_stats(params.y)
    q_primes, ell = st.modulus_primes, params.ell
    _check_multisets(QT_LIMIT, f"prime factors over Q_{ell}", (len(q_primes), ell), per=ell)
    pk = Fraction(st.prime_count) ** params.k
    total = Fraction(0)
    for _m, combo, weight in _modulus_multisets(q_primes, ell):
        total += weight * pk / _phi_of_multiset(combo)
    return total


@dataclass(frozen=True)
class PhiSlackReport:
    """How far main_term sits below the principal contribution.

    delta is defined by main_term = principal * (1 + delta); it is always in
    (-hard_bound, 0] because 1/phi(m) >= 1/m termwise.  within_constant2
    records whether |delta| <= 2*l/y, a small-case constant choice that is
    reported rather than assumed.
    """

    delta: Fraction
    constant2_bound: Fraction
    within_constant2: bool
    hard_bound: Fraction
    within_hard: bool


def phi_slack(params: CensusParams) -> PhiSlackReport:
    st = interval_stats(params.y)
    if not st.modulus_primes or st.prime_count == 0:
        zero = Fraction(0)
        return PhiSlackReport(zero, zero, True, zero, True)
    principal = principal_contribution(params)
    mt = main_term(params)
    delta = mt / principal - 1
    c2 = Fraction(2 * params.ell) / Fraction(params.y)
    q_min = st.modulus_primes[0]
    hard = 1 - (1 - Fraction(1, q_min)) ** params.ell
    return PhiSlackReport(
        delta=delta,
        constant2_bound=c2,
        within_constant2=abs(delta) <= c2,
        hard_bound=hard,
        within_hard=-hard <= delta <= 0,
    )


@dataclass(frozen=True)
class NonprincipalReport:
    """The non-principal part of the census and the bounds claimed for it.

    value = census - principal, exact.  direct_bound is the termwise bound
    sum over tuples of (2/m) * sum_{chi != chi0} |S_chi|^k; class_bounds[t]
    is the primitive-conductor regrouping with the combinatorial weight
    (2/q) * (l!/(l-t)!) * lambda^(l-t) per conductor in the t-prime class.
    The holds flags can fail for tiny y where 1/phi(m) > 2/m; that is
    recorded, not hidden.  A bound past the double range is None, and so is
    its holds flag.
    """

    census: int
    principal: Fraction
    value: Fraction
    direct_bound: float | None
    direct_bound_holds: bool | None
    class_bounds: dict[int, float | None]
    class_bound_total: float | None
    class_bound_holds: bool | None


def nonprincipal_contribution(params: CensusParams) -> NonprincipalReport:
    st = interval_stats(params.y)
    # the direct bound walks Q_ell, the class bounds Q_1 .. Q_ell
    _check_character_work(st, [params.ell, *range(1, params.ell + 1)])
    count = congruence_solutions(st.product_primes, st.modulus_primes, params.k, params.ell)
    principal = principal_contribution(params)
    value = Fraction(count) - principal

    direct = 0.0
    for m, _combo, weight in _modulus_multisets(st.modulus_primes, params.ell):
        nonprincipal = _prime_sums(character_table(m), st)[1:]  # chi_0 first
        with np.errstate(over="ignore"):
            direct += weight * 2 / m * float(np.sum(np.abs(nonprincipal) ** params.k))

    lam = st.recip_sum
    fact_ell = math.factorial(params.ell)
    class_bounds: dict[int, float | None] = {}
    for t in range(1, params.ell + 1):
        weight = float(
            2
            * Fraction(fact_ell, math.factorial(params.ell - t))
            * lam ** (params.ell - t)
        )
        moments = _class_moments(t, params.y, params.k)
        class_bounds[t] = finite_float(lambda: sum((weight / q * s for q, s in moments), 0.0))
    direct_bound = finite_float(lambda: direct)
    class_total = None if None in class_bounds.values() else sum(class_bounds.values())

    def holds(bound):
        return None if bound is None else abs(value) <= bound * (1 + IDENTITY_TOL)

    return NonprincipalReport(
        census=count,
        principal=principal,
        value=value,
        direct_bound=direct_bound,
        direct_bound_holds=holds(direct_bound),
        class_bounds=class_bounds,
        class_bound_total=class_total,
        class_bound_holds=holds(class_total),
    )


@dataclass(frozen=True)
class ModulusClass:
    """All products of exactly t modulus-range primes, with multiplicity."""

    t: int
    y: float
    moduli: tuple[int, ...]
    size: int
    size_reference: float
    within_reference: bool


def enumerate_Qt(t: int, y: float) -> ModulusClass:
    """Enumerate the modulus class of t-prime products from (y/4, y/2].

    size_reference is P^t/t! where P counts the (y/2, y] primes; the
    comparison is a recorded diagnostic (it can fail for small y).
    """
    st = interval_stats(y)
    q_primes = st.modulus_primes
    # t prime factors per modulus: a huge t makes few moduli but long products
    size = _check_multisets(QT_LIMIT, f"prime factors over Q_{t}", (len(q_primes), t), per=t)
    moduli = sorted(m for m, _combo, _w in _modulus_multisets(q_primes, t))
    reference = st.prime_count**t / math.factorial(t)
    return ModulusClass(
        t=t,
        y=y,
        moduli=tuple(moduli),
        size=size,
        size_reference=reference,
        within_reference=size <= reference,
    )


@dataclass(frozen=True)
class LargeSieveInstance:
    """Coefficients a_1..a_N with either a single modulus or a family bound."""

    length: int
    coefficients: tuple[complex, ...]
    modulus: int | None = None
    modulus_bound: int | None = None

    def __post_init__(self) -> None:
        if self.length < 1 or len(self.coefficients) != self.length:
            raise ValidationError(
                f"need length >= 1 with exactly length coefficients, got "
                f"length={self.length}, #coefficients={len(self.coefficients)}"
            )

    def norm(self) -> float:
        return sum(abs(a) ** 2 for a in self.coefficients)


@dataclass(frozen=True)
class SieveCheck:
    mode: str
    lhs: float
    rhs: float
    passed: bool


def large_sieve_check(instance: LargeSieveInstance, mode: str) -> SieveCheck:
    """Verify a mean-square character sum inequality on one instance.

    single-modulus: sum over all chi mod q of |sum a_n chi(n)|^2
                    <= (N + q) * sum |a_n|^2.
    primitive-family: sum over q <= Q of (q/phi(q)) * sum over primitive chi
                    of |...|^2 <= (N + Q^2 - 1) * sum |a_n|^2.
    Both inequalities hold unconditionally; passed=False means a bug,
    not an interesting input.  The family tables hold sum_{q <= Q} phi(q)
    <= Q(Q+1)/2 points; that bound is refused over CHARACTER_WORK_LIMIT
    before any table is built.
    """
    norm = instance.norm()
    ns = np.arange(1, instance.length + 1)
    if mode == "single-modulus":
        if instance.modulus is None:
            raise ValidationError("single-modulus mode needs a modulus")
        sums = character_table(instance.modulus).sums(ns, instance.coefficients)
        lhs = float(np.sum(np.abs(sums) ** 2))
        rhs = (instance.length + instance.modulus) * norm
    elif mode == "primitive-family":
        if instance.modulus_bound is None:
            raise ValidationError("primitive-family mode needs a modulus bound")
        bound = instance.modulus_bound
        what = f"character tables for q <= {bound} hold up to {{}} points"
        check_capacity(what, bound * (bound + 1) // 2, CHARACTER_WORK_LIMIT)
        lhs = 0.0
        for q in range(1, bound + 1):
            table = character_table(q)
            part = _primitive_power_sum(table, table.sums(ns, instance.coefficients), 2)
            lhs += q / table.totient * part
        rhs = (instance.length + bound**2 - 1) * norm
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return SieveCheck(mode=mode, lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1 + IDENTITY_TOL))


def random_sieve_instances(
    trials: int,
    seed: int,
    mode: str,
    fixed_modulus: int | None = None,
    fixed_bound: int | None = None,
):
    """Seeded stream of random instances for the large sieve checks.

    Lengths, moduli and family bounds are drawn uniformly up to the SIEVE_MAX_*
    constants unless pinned via fixed_modulus / fixed_bound.  Refused at the
    call, before the first instance: more than SIEVE_TRIALS_LIMIT trials, and
    family tables over all trials, trials * Q(Q+1)/2 points for the largest
    bound Q, past CHARACTER_WORK_LIMIT.
    """
    check_capacity("{} large-sieve trials", trials, SIEVE_TRIALS_LIMIT)
    if mode == "primitive-family":
        bound = fixed_bound if fixed_bound is not None else SIEVE_MAX_BOUND
        what = f"character tables for q <= {bound} over {trials} trials hold up to {{}} points"
        check_capacity(what, trials * (bound * (bound + 1) // 2), CHARACTER_WORK_LIMIT)
    return _sieve_instances(trials, seed, mode, fixed_modulus, fixed_bound)


def _sieve_instances(trials, seed, mode, fixed_modulus, fixed_bound):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, SIEVE_MAX_LENGTH)
        coeffs = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)
        )
        if mode == "single-modulus":
            q = fixed_modulus if fixed_modulus is not None else rng.randint(1, SIEVE_MAX_MODULUS)
            yield LargeSieveInstance(length=n, coefficients=coeffs, modulus=q)
        else:
            b = fixed_bound if fixed_bound is not None else rng.randint(1, SIEVE_MAX_BOUND)
            yield LargeSieveInstance(length=n, coefficients=coeffs, modulus_bound=b)


@dataclass(frozen=True)
class MomentReport:
    """One moment of prime character sums over a modulus class.

    lhs is the float from direct character enumeration; lhs_exact the same
    quantity recomputed in pure integer arithmetic through representation
    counts and conductor inclusion-exclusion.  reference carries implied
    constant 1, so ratio is reported without any pass/fail.
    """

    t: int
    y: float
    which: str
    lhs: float
    lhs_exact: int
    reference: float
    ratio: float | None
    class_size: int


def _residue_pair_sum(table: RepresentationTable, c: int) -> int:
    """Sum over pairs m == n (mod c) of a(m)*a(n), exactly."""
    by_residue: Counter[int] = Counter()
    for n, a in table.counts.items():
        by_residue[n % c] += a
    return sum(v * v for v in by_residue.values())


def moment_primitive_sum_exact(q: int, table: RepresentationTable) -> int:
    """Integer value of sum over primitive chi mod q of |sum_n a(n) chi(n)|^2.

    Uses the orthogonality identity per divisor-modulus and Moebius inversion
    over conductors; requires every n in the table coprime to q, which holds
    here because product-range primes cannot divide modulus-range products.
    """
    for p in factorize(q):
        if any(n % p == 0 for n in table.counts):
            raise ValidationError(
                f"representation support shares prime {p} with modulus {q}"
            )
    total = 0
    for c in _divisors(q):
        mu = _mobius(q // c)
        if mu == 0:
            continue
        total += mu * _phi(c) * _residue_pair_sum(table, c)
    return total


def moment_check(t: int, y: float, which: str) -> MomentReport:
    """Moment of prime character sums over the t-prime modulus class.

    which="2t": sum over q in Q_t, primitive chi mod q of |S_chi|^(2t),
    reference y^t * P^(2t).  which="4t": exponent 4t, reference (t*y*P)^(2t),
    stated without the q/phi(q) weight.
    """
    if which not in ("2t", "4t"):
        raise ValidationError(f"which must be '2t' or '4t', got {which!r}")
    st = interval_stats(y)
    _check_character_work(st, [t])
    power = 2 * t if which == "2t" else 4 * t
    rep = representation_counts(power // 2, y)
    moments = _class_moments(t, y, power)
    lhs = sum((s for _q, s in moments), 0.0)
    lhs_exact = sum(moment_primitive_sum_exact(q, rep) for q, _s in moments)

    big_p = st.prime_count
    reference = (
        float(y) ** t * big_p ** (2 * t)
        if which == "2t"
        else float(t * y * big_p) ** (2 * t)
    )
    ratio = lhs_exact / reference if reference > 0 else None
    return MomentReport(
        t=t, y=y, which=which, lhs=lhs, lhs_exact=lhs_exact,
        reference=reference, ratio=ratio, class_size=len(moments),
    )


@dataclass(frozen=True)
class TailShapeReport:
    """Shape ratio of one tail of the non-principal bound.

    low range: sum over 1 <= t <= k/4 of (4l/y)^t * lambda^(l-t) * M_k(t)
    against P^k * lambda^l / log y.  high range: sum over k/4 < t <= l of
    (4/y)^t * lambda^(l-t) * M_k(t) against l^(k-l) * (4*lambda*P)^l *
    y^(k/2), where M_k(t) sums |S_chi|^k over primitive characters of the
    t-prime modulus class.  The two ranges deliberately carry different
    per-term weights, matching the bounds they come from.  Ratios only; a
    float past the double range is None, and so is whatever is built on it.
    """

    which: str
    k: int
    ell: int
    y: float
    terms: dict[int, float | None]
    lhs: float | None
    reference: float | None
    ratio: float | None


def tail_shape(params: CensusParams, which: str) -> TailShapeReport:
    if which not in ("low", "high"):
        raise ValidationError(f"which must be 'low' or 'high', got {which!r}")
    st = interval_stats(params.y)
    k, ell, y = params.k, params.ell, params.y
    t_values = [t for t in range(1, ell + 1) if (t <= k / 4) == (which == "low")]
    _check_character_work(st, t_values)
    lam = float(st.recip_sum)
    big_p = st.prime_count

    if which == "low":
        base = 4 * ell / y
        reference = finite_float(lambda: big_p**k * lam**ell / math.log(y))
    else:
        base = 4 / y
        reference = finite_float(
            lambda: ell ** (k - ell) * (4 * lam * big_p) ** ell * y ** (k / 2)
        )

    terms = {}
    for t in t_values:
        moment = sum((s for _q, s in _class_moments(t, y, k)), 0.0)
        terms[t] = finite_float(lambda: base**t * lam ** (ell - t) * moment)
    lhs = None if None in terms.values() else sum(terms.values())
    ratio = finite_float(lambda: lhs / reference) if lhs is not None and reference else None
    return TailShapeReport(
        which=which, k=k, ell=ell, y=y, terms=terms,
        lhs=lhs, reference=reference, ratio=ratio,
    )
