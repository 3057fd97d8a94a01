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
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ToleranceError, ValidationError, check_capacity, check_power_capacity, finite_float
from .prime_tools import PrimeStats, _packed, _primitive_root, factorize, interval_stats
from . import tuple_census
from .tuple_census import (
    CensusParams,
    RepresentationTable,
    _census_result,
    _check_multisets,
    _multisets,
    congruence_solutions,
    main_term,
    representation_counts,
)

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
# the character census's rounding budget, in units of 2^-53: ordered tuples
# times the roundings each carries (census_via_characters)
CHARACTER_COUNT_LIMIT = int(2**53 * ROUNDING_TOL)


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
    ``primitive_mask[i]`` says whether character i is primitive.  A walk
    builds each table for one use; ``character_table`` caches them.
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
                # lifted^j for j < order by doubling the run; each product is below m^2 <= 10^12
                powers, filled, step = np.ones(order, dtype=np.int64), 1, lifted
                while filled < order:
                    n = min(filled, order - filled)
                    powers[filled : filled + n] = powers[:n] * step % modulus
                    filled, step = filled + n, step * step % modulus
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


def _walk(st: PrimeStats, t: int, ascending: bool = False):
    """(m, w(m), table, S_chi for every chi mod m) for each m of Q_t, with
    S_chi = sum of chi(p) over the product-range primes p: the one transform
    of each modulus.  In multiset order, or with ``ascending`` by m, the
    order in which the moments and tails add their sums.  Callers admit Q_t
    first (_check_character_work).
    """
    moduli, weights = next(_multisets(st.modulus_primes, t))[1:]
    if ascending:
        order = np.argsort(moduli)
        moduli, weights = moduli[order], weights[order]
    ones = np.ones(len(st.product_primes))
    for m, weight in zip(moduli.tolist(), weights.tolist()):
        table = CharacterTable(m)
        yield m, weight, table, table.sums(st.product_primes, ones)


def _primitive_power_sum(table: CharacterTable, sums: np.ndarray, k: int) -> float:
    """Sum over the primitive characters chi mod m of |S_chi|^k (inf past the
    double range).  From k = 2^64 every double's k-th power is already 0, 1 or
    inf, so a larger k is taken as 2^64 and never converted to a float."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(sums[table.primitive_mask]) ** min(k, 2**64)))


def _check_character_work(st: PrimeStats, ts) -> None:
    """The check every character route makes first, before any table: refuse
    work over Q_t for t in ts (ascending) that transforms more than
    CHARACTER_WORK_LIMIT grid points in all, or that meets a modulus past
    CHARACTER_MODULUS_LIMIT.

    A table mod q has phi(q) points, and the sum of phi(q) over Q_t is the
    x^t coefficient of the product over the |Q| modulus primes p of
    1 + (p-1)x/(1 - px) = (1 - x)/(1 - px), because phi(p^e) = p^(e-1)(p-1):
    the sum over j of (-1)^j C(|Q|, j) h_(t-j), with h the class sums
    (tuple_census._class_sums).  Its lower bound
    for check_capacity: past t = 64, |Q_t| 2^(t-1) for the top t, as
    phi(q) >= 2^(t-1) on Q_t; else the sum over t of |Q_t| (min q - 1)^t, as
    phi(q) >= (min q - 1)^t.  Q_t is enumerated (enumerate_Qt) only when
    max(q)^t passes the modulus cap, to name the least modulus past it.
    """
    if not st.modulus_primes:
        return
    top = ts[-1] if ts else 0
    shown = list(ts) if len(ts[:65]) <= 64 else f"[{ts[0]}, ..., {top}]"  # len() of a range stops at 2^63
    what = f"character tables over Q_t, t in {shown}, hold {{}} points (sum of phi(q))"
    n, least = len(st.modulus_primes), st.modulus_primes[0] - 1
    if top > 64:
        low = top - 1 + tuple_census._multiset_bits(n, top)
    else:
        low = sum(math.comb(n + t - 1, t) * least**t for t in ts).bit_length() - 1

    def total():
        sums = tuple_census._class_sums(st.modulus_primes, top)
        return sum((-1) ** j * math.comb(n, j) * sums[t - j] for t in ts for j in range(t + 1))

    check_capacity(what, total, CHARACTER_WORK_LIMIT, low)
    for t in ts:
        if st.modulus_primes[-1] ** t > CHARACTER_MODULUS_LIMIT:
            least = min(m for m in enumerate_Qt(t, st.y).moduli if m > CHARACTER_MODULUS_LIMIT)
            check_capacity("character table modulus {}", least, CHARACTER_MODULUS_LIMIT)


def census_via_characters(params: CensusParams):
    """Census recomputed by character orthogonality; must equal count_exact.

    For each modulus m = q_1*...*q_l the tuple count with product 1 mod m is
    (1/phi(m)) * sum over chi mod m of S_chi^k; the weighted counts are added
    by math.fsum and rounded under ROUNDING_TOL.  Before any table, P^k * Q^l
    ordered tuples are refused past CHARACTER_COUNT_LIMIT // F: then the
    total's error, at most 2^-53 P^k Q^l F to first order, stays below the
    guard.  With |S_chi| <= P and L = l (bit length of max q + 2) >= the sum
    of log2(order) + 2 over the generators, F = k (21 L + 10) + L + 20: the
    transform, by Higham's FFT bound (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 24.2: log2(n) eta, eta < 7u) taken three times
    for Bluestein's and generic-radix passes, plus two scalings, carried k
    times by the power; the power, 8k; numpy's pairwise sum, L + 17; the
    weight, 1/phi(m) and the fsum, 3.
    """
    st = interval_stats(params.y)
    p, q, k, ell = st.prime_count, len(st.modulus_primes), params.k, params.ell
    levels = ell * (max(st.modulus_primes, default=1).bit_length() + 2)
    roundings = k * (21 * levels + 10) + levels + 20
    what = f"character census within ROUNDING_TOL over P^k * Q^l = {p}^{k} * {q}^{ell} = {{}} ordered tuples"
    check_power_capacity(what, ((p, k), (q, ell)), CHARACTER_COUNT_LIMIT // roundings)
    _check_character_work(st, [ell])

    def count():
        terms = [weight * complex(np.sum(sums**k)) / table.totient for _m, weight, table, sums in _walk(st, ell)]
        total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
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

    1/phi is multiplicative, so the sum over ordered ell-tuples of moduli is
    ell! times the x^ell coefficient of the Euler product over the modulus
    primes q of 1 + sum_{e >= 1} x^e / (e! phi(q^e)), phi(q^e) = (q-1) q^(e-1).
    For |Q| >= 2 its |Q| ell(ell+1)/2 terms stay below Q_ell's QT_LIMIT figure.
    """
    st = interval_stats(params.y)
    q_primes, ell = st.modulus_primes, params.ell
    _check_multisets(QT_LIMIT, f"prime factors over Q_{ell}", (len(q_primes), ell), per=ell)
    coeffs = [Fraction(1)] + [Fraction(0)] * ell
    for q in q_primes:
        terms = [Fraction(1, math.factorial(e) * (q - 1) * q ** (e - 1)) for e in range(1, ell + 1)]
        for d in range(ell, 0, -1):  # high degrees first, so each reads the old lower ones
            for e in range(1, d + 1):
                coeffs[d] += coeffs[d - e] * terms[e - 1]
    return math.factorial(ell) * coeffs[ell] * Fraction(st.prime_count) ** params.k


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


def phi_slack(params: CensusParams, principal: Fraction) -> PhiSlackReport:
    """The slack of main_term against ``principal``, principal_contribution(params)."""
    st = interval_stats(params.y)
    if not st.modulus_primes or st.prime_count == 0:
        zero = Fraction(0)
        return PhiSlackReport(zero, zero, True, zero, True)
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
    k, ell = params.k, params.ell
    _check_character_work(st, range(1, ell + 1))
    count = congruence_solutions(st.product_primes, st.modulus_primes, k, ell)
    principal = principal_contribution(params)
    value = Fraction(count) - principal

    # one walk over each Q_t: Q_ell's, first, also gives the direct bound
    direct = 0.0
    moments: dict[int, list[tuple[int, float]]] = {}
    for t in (ell, *range(1, ell)):
        moments[t] = []
        for m, weight, table, sums in _walk(st, t):
            if t == ell:  # the direct bound, over every chi but chi_0, which comes first
                with np.errstate(over="ignore"):
                    direct += weight * 2 / m * float(np.sum(np.abs(sums[1:]) ** k))
            moments[t].append((m, _primitive_power_sum(table, sums, k)))

    lam = st.recip_sum
    class_bounds: dict[int, float | None] = {}
    for t in range(1, ell + 1):
        weight = float(2 * Fraction(math.factorial(ell), math.factorial(ell - t)) * lam ** (ell - t))
        class_bounds[t] = finite_float(lambda: sum((weight / q * s for q, s in sorted(moments[t])), 0.0))
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
    """All products of exactly t modulus-range primes, with multiplicity,
    ascending: packed int64 while max(q)^t < 2^63, else Python ints."""

    t: int
    y: float
    moduli: array | tuple[int, ...]
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
    products = next(_multisets(q_primes, t))[1]  # the rows and weights are freed here
    products.sort()  # in place, then packed: at most two copies of the products
    moduli = _packed(products) if products.dtype == np.int64 else tuple(products.tolist())
    reference = st.prime_count**t / math.factorial(t)
    return ModulusClass(
        t=t,
        y=y,
        moduli=moduli,
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


def moment_primitive_sum_exact(q: int, table: RepresentationTable) -> int:
    """Integer value of sum over primitive chi mod q of |sum_n a(n) chi(n)|^2.

    Uses the orthogonality identity per divisor-modulus and Moebius inversion
    over conductors; requires every n in the table coprime to q, which holds
    here because product-range primes cannot divide modulus-range products.
    One scatter-add tallies the counts by residue mod q into a dense array of
    length q, and each divisor c folds it, as c | q, into its c residues.  A
    sum of squared tallies is at most total^2, so the tally is int64 while
    total^2 < 2^63 and Python ints (object) past that, by the same code.  The
    divisors c with mu(q/c) != 0 keep p^e or p^(e-1) of each p^e || q, and
    (c, mu(q/c), phi(c)) is built up prime by prime.
    """
    factors = factorize(q)
    dtype = np.int64 if table.total**2 < 2**63 else object
    tally = np.zeros(q, dtype)
    np.add.at(tally, (table.products % q).astype(np.intp), table.counts.astype(dtype))
    for p in factors:
        if tally[::p].any():
            raise ValidationError(
                f"representation support shares prime {p} with modulus {q}"
            )
    terms = [(1, 1, 1)]
    for p, e in factors.items():
        terms = [
            (c * p**j, mu * (-1) ** (e - j), phi * (p**j - p**j // p))
            for c, mu, phi in terms
            for j in (e, e - 1)
        ]
    total = 0
    for c, mu, phi in terms:
        # the pairs m == n (mod c): the squared count of each residue class of c
        tallies = tally.reshape(-1, c).sum(axis=0)
        total += mu * phi * int(tallies @ tallies)
    return total


def moment_check(t: int, y: float) -> tuple[MomentReport, MomentReport]:
    """The "2t" and "4t" moments of prime character sums over the t-prime
    modulus class, from one walk over it.

    "2t": sum over q in Q_t, primitive chi mod q of |S_chi|^(2t), reference
    y^t * P^(2t).  "4t": exponent 4t, reference (t*y*P)^(2t), stated without
    the q/phi(q) weight.  The exact identities reduce and tally |Q_t| *
    (N_t + N_2t) products of the two tables (moment_primitive_sum_exact), a
    figure refused past FOLD_OP_LIMIT before either table is built.
    """
    st = interval_stats(y)
    _check_character_work(st, [t])
    sizes = [tuple_census._representation_size(s, y) for s in (t, 2 * t)]
    what = f"representation products reduced mod each q of Q_{t}"
    _check_multisets(tuple_census.FOLD_OP_LIMIT, what, (len(st.modulus_primes), t), per=sum(sizes))
    reps = [representation_counts(s, y) for s in (t, 2 * t)]
    moduli, two_t, four_t = [], [], []
    for q, _w, table, sums in _walk(st, t, ascending=True):
        moduli.append(q)
        two_t.append(_primitive_power_sum(table, sums, 2 * t))
        four_t.append(_primitive_power_sum(table, sums, 4 * t))

    big_p = st.prime_count
    references = (float(y) ** t * big_p ** (2 * t), float(t * y * big_p) ** (2 * t))
    reports = []
    for which, rep, column, reference in zip(("2t", "4t"), reps, (two_t, four_t), references):
        lhs_exact = sum(moment_primitive_sum_exact(q, rep) for q in moduli)
        reports.append(MomentReport(
            t=t, y=y, which=which, lhs=sum(column, 0.0), lhs_exact=lhs_exact, reference=reference,
            ratio=lhs_exact / reference if reference > 0 else None, class_size=len(moduli),
        ))
    return tuple(reports)


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


def tail_shape(params: CensusParams) -> tuple[TailShapeReport, TailShapeReport]:
    """The "low" and "high" reports; both ranges are admitted before either walks."""
    st = interval_stats(params.y)
    k, ell, y = params.k, params.ell, params.y
    split = min(ell, k // 4)
    ranges = {"low": range(1, split + 1), "high": range(split + 1, ell + 1)}
    for t_values in ranges.values():
        _check_character_work(st, t_values)
    lam, big_p = float(st.recip_sum), st.prime_count
    # each reference multiplies an integer power by floats; one of 1024 bits
    # or more has no float copy, so it is not formed and the reference is None
    shapes = {
        "low": (4 * ell / y, (big_p, k), lambda: big_p**k * lam**ell / math.log(y)),
        "high": (4 / y, (ell, k - ell), lambda: ell ** (k - ell) * (4 * lam * big_p) ** ell * y ** (k / 2)),
    }
    reports = []
    for which, (base, (b, e), shape) in shapes.items():
        terms, reference = {}, finite_float(shape) if e * (b.bit_length() - 1) < 1024 else None
        for t in ranges[which]:
            walk = _walk(st, t, ascending=True)
            moment = sum((_primitive_power_sum(table, sums, k) for _q, _w, table, sums in walk), 0.0)
            terms[t] = finite_float(lambda: base**t * lam ** (ell - t) * moment)
        lhs = None if None in terms.values() else sum(terms.values(), 0.0)
        ratio = finite_float(lambda: lhs / reference) if lhs is not None and reference else None
        reports.append(TailShapeReport(
            which=which, k=k, ell=ell, y=y, terms=terms, lhs=lhs, reference=reference, ratio=ratio,
        ))
    return tuple(reports)
