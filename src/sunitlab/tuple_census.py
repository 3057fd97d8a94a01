"""Census of prime-tuple product congruences.

Counts ordered tuples (p_1, ..., p_k, q_1, ..., q_l) with each p_i a prime in
(y/2, y], each q_j a prime in (y/4, y/2], and

    p_1 * ... * p_k == 1  (mod q_1 * ... * q_l).

Exposes the one congruence engine (congruence_solutions), which counts or
lists the matching (product multiset, modulus multiset) pairs by modulus or by
quotient, the exact counter built on it, a brute-force direct counter for
cross-checks, a Monte Carlo estimator, and the exact rational main/error
reference terms the count is compared against.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError, check_capacity, check_power_capacity, finite_float
from .prime_tools import PrimeStats, _phi_of_multiset, interval_stats

MODULUS_LIMIT = 2**31
DIRECT_OP_LIMIT = 50_000_000
FOLD_OP_LIMIT = 300_000_000
PAIR_OP_LIMIT = 5_000_000
REPRESENTATION_LIMIT = 5_000_000
SAMPLE_DRAW_LIMIT = 300_000_000
EXACT_BITS_LIMIT = 2**20
# products materialized per sort-merge, and k-products per quotient pass: work
# within FOLD_OP_LIMIT could otherwise hold 3*10^8 products (gigabytes) at once
_FOLD_CHUNK = 1 << 20
# residues per group of moduli, and multiset products per block, in the census
# by blocks.  Timed at k = 2, y = 10^5 against the per-modulus fold (2.9 s,
# 31.3 MB peak RSS): 2^14 took 0.72 s at 31.3 MB, 2^15 0.56 s at 32.1 MB, and
# 2^16 0.50 s at 33.6 MB.  At y = 1000, ell = 2, 2^14 to 2^17 all took 0.03 to
# 0.04 s at k = 3 and 1.08 to 1.14 s at k = 4
_BLOCK_ELEMENTS = 1 << 15
# Mersenne Twister words per numpy block of the Monte Carlo census, and the
# longest tuple (k + ell draws) it resolves as arrays; longer ones cost k + ell
# array passes for the few tuples a block holds, and are walked one by one.
# Timed per draw, the two break even at 32 to 112 draws (fewer for Python-int
# residues or many rejected words, more for y >= 1000): 64 sits in that range
_DRAW_BLOCK = 1 << 13
_CHAIN_DRAWS = 64


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
    where the bound is proved; the value is reported either way (None past
    the double range).  ``exact`` is the bound as a Fraction when y^(k/2) is
    rational (k even), else None.
    """

    applicable: bool
    value: float | None
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


def main_term(params: CensusParams) -> Fraction:
    """Exact rational main term lambda^l * P^k."""
    st = interval_stats(params.y)
    return st.recip_sum**params.ell * Fraction(st.prime_count) ** params.k


def error_term(params: CensusParams) -> ErrorTerm:
    """Reference error bound for the census, with its regime flag."""
    st = interval_stats(params.y)
    k, ell = params.k, params.ell
    lam, big_p = st.recip_sum, st.prime_count
    applicable = 4 * ell >= k and 2 * ell <= k
    base = Fraction(ell) ** (k - ell) * (4 * lam * big_p) ** ell
    if k % 2 == 0:
        y_half = Fraction(params.y) ** (k // 2)
        exact: Fraction | None = base * y_half
        value = finite_float(lambda: exact)
    else:
        exact = None
        value = finite_float(lambda: float(base) * params.y ** (k / 2))
    note = "" if applicable else f"outside regime k/4 <= l <= k/2 for k={k}, l={ell}"
    return ErrorTerm(applicable=applicable, value=value, exact=exact, note=note)


def _multiset_weight(combo: tuple[int, ...]) -> int:
    """Ordered tuples realizing the multiset combo: len(combo)! / prod(mult!).

    Summing weighted per-multiset counts reproduces the ordered count.  This
    is the one place the multinomial weight of a multiset of values is
    computed; _multiset_slices computes it for rows of indices.
    """
    weight = math.factorial(len(combo))
    if len(set(combo)) < len(combo):  # distinct primes, the common case, divide by 1
        for mult in Counter(combo).values():
            weight //= math.factorial(mult)
    return weight


def ordered_weight(matches) -> int:
    """Ordered tuples behind (product multiset, modulus multiset) matches: sum w(r) w(m)."""
    return sum(_multiset_weight(r) * _multiset_weight(m) for r, m in matches)


def _modulus_multisets(primes: tuple[int, ...], t: int):
    """Yield (product, multiset, ordered-tuple weight) per multiset of t primes."""
    for combo in itertools.combinations_with_replacement(primes, t):
        yield math.prod(combo), combo, _multiset_weight(combo)


def _check_multisets(cap: int, what: str, *classes: tuple[int, int], per: int = 1) -> int:
    """Number of ways to pick one t-multiset (t >= 1) of n items from each (n, t)
    class; refused when ``per`` units of work for each pass ``cap``.
    """
    for _n, t in classes:
        if t < 1:
            raise ValidationError(f"need multisets of t >= 1 primes, got t={t}")
    size = math.prod(math.comb(n + t - 1, t) for n, t in classes)
    check_capacity(what + ": {}", size * per, cap)
    return size


def _fold_products(n: int, k: int, largest: int) -> int:
    """Upper bound on the residue products of _count_products_congruent_one
    for n primes, k factors and a modulus up to ``largest``: n reductions, then
    fold j takes the at most min(C(v+j-1, j), largest) products of j residues
    times v = min(n, largest); the C terms below ``largest`` sum to C(v+J, J) - 1.
    Once counts pass int64 (n^k >= 2^63) each product counts once per 64-bit
    word of its Python-int count, which is what it costs.
    """
    v = min(n, largest)
    folds = range(1, max(k - 1, 1))
    small = bisect.bisect_left(folds, True, key=lambda j: math.comb(v + j - 1, j) >= largest)
    products = n + v * (math.comb(v + small, small) - 1) + (len(folds) - small) * largest * v
    return products * ((n**k).bit_length() // 64 + 1)


def _exact_bits(params: CensusParams, st: PrimeStats) -> int:
    """Upper bound on the bits of the numerator and of the denominator of each
    exact value a census record carries: lambda, lambda^l * P^k and, at even
    k, the error bound l^(k-l) * (4*lambda*P)^l * y^(k/2).

    lambda < 1 and its denominator divides the product of the modulus primes,
    so both its parts have at most the sum of their bit lengths; a product
    of fractions has at most the summed bits of its factors.
    """
    k, ell = params.k, params.ell
    lam = sum(q.bit_length() for q in st.modulus_primes)
    bits = [lam, ell * lam + k * st.prime_count.bit_length()]
    if k % 2 == 0:
        y = Fraction(params.y)
        y_bits = max(y.numerator.bit_length(), y.denominator.bit_length())
        four_lam_p = lam + (4 * st.prime_count).bit_length()
        bits.append((k - ell) * ell.bit_length() + ell * four_lam_p + k // 2 * y_bits)
    return max(bits)


def _census_result(params: CensusParams, method: str, count, empty=(0, None)) -> CensusResult:
    """One census record: main and error terms, ratio, empty-interval flag.

    ``count()`` returns (count, std_error) and runs only when the modulus
    range holds primes; otherwise the record carries ``empty`` instead.
    Exact values past EXACT_BITS_LIMIT bits are refused before ``count()``
    and before lambda is built: writing them out is quadratic in their digits.
    """
    st = interval_stats(params.y)
    what = "exact values of the census record: up to {} bits"
    check_capacity(what, _exact_bits(params, st), EXACT_BITS_LIMIT)
    value, std_error = count() if st.modulus_primes else empty
    mt = main_term(params)
    et = error_term(params)
    return CensusResult(
        count=value, main_term=mt, error_bound=et,
        ratio=finite_float(lambda: value / float(mt)) if mt and value is not None else None,
        method=method,
        in_hypothesis=params.in_hypothesis,
        empty_interval=not st.modulus_primes, std_error=std_error,
    )


def _merge(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (value, count) pairs by value and add up the counts of equal values."""
    order = np.argsort(values)
    values, counts = values[order], counts[order]
    starts = np.flatnonzero(np.diff(values, prepend=-1))
    return values[starts], np.add.reduceat(counts, starts)


def _euler_inverses(units: np.ndarray, m: int, phi: int) -> np.ndarray:
    """u^(phi(m)-1) mod m, the inverse of each unit u, by square-and-multiply."""
    result = np.full_like(units, 1 % m)
    power = units.copy()
    e = phi - 1
    while e:
        if e & 1:
            np.remainder(np.multiply(result, power, out=result), m, out=result)
        e >>= 1
        if e:
            np.remainder(np.multiply(power, power, out=power), m, out=power)
    return result


def _tree_inverses(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The inverse of every unit r[j, i] mod m[j, 0], by a product tree per row.

    Columns are multiplied in pairs, level by level, down to one column (the
    last column of an odd level goes up alone, as if paired with a 1); each
    row's total is inverted once by pow, and walking back down, a child's
    inverse is its parent's times its sibling.  About 3 multiply-mods per
    entry, written in place; exact in int64 for m < 2^31.
    """

    def mulmod(a, b, out):
        np.remainder(np.multiply(a, b, out=out), m, out=out)

    levels = [r]
    while levels[-1].shape[1] > 1:
        level = levels[-1]
        half = level.shape[1] // 2
        evens, odds = level[:, 0 : 2 * half : 2], level[:, 1::2]
        up = np.empty_like(level[:, : level.shape[1] - half])
        mulmod(evens, odds, up[:, :half])
        up[:, half:] = level[:, 2 * half :]
        levels.append(up)
    inv = np.array([[pow(x, -1, q)] for x, q in zip(levels.pop().ravel().tolist(), m.ravel().tolist())])
    while levels:
        level = levels.pop()
        half = level.shape[1] // 2
        parent, inv = inv, np.empty_like(level)
        mulmod(parent[:, :half], level[:, 1::2], inv[:, 0 : 2 * half : 2])
        mulmod(parent[:, :half], level[:, 0 : 2 * half : 2], inv[:, 1::2])
        inv[:, 2 * half :] = parent[:, half:]
    return inv


def _multiset_slices(n: int, t: int):
    """Yield the t-multisets of n columns (t >= 1) in slices by first index of
    about _BLOCK_ELEMENTS multisets, as (columns, weights): each index column,
    contiguous, and each multiset's weight w, the ordered t-tuples of columns
    it stands for.  At t = 1 the multisets are the columns in order, each of
    weight 1: one slice, (None, None).
    """
    if t == 1:
        yield None, None
        return
    step = max(1, _BLOCK_ELEMENTS // math.comb(n + t - 2, t - 1))
    for first in range(0, n, step):
        rows = _multiset_rows(n, t, first, min(first + step, n))
        # w built up column by column as w * (j + 1) / run, with run the
        # repeats of the last index; dividing by run / gcd first stays exact
        weights, run = np.ones(len(rows), dtype=np.int64), np.ones(len(rows), dtype=np.int64)
        for j in range(1, t):
            run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
            g = np.gcd(run, j + 1)
            weights = weights // (run // g) * ((j + 1) // g)
        yield rows.T.copy(), weights  # np.take gathers 4x faster along a contiguous index


def _gather(a: np.ndarray, columns, c: int) -> np.ndarray:
    """a's entries at each multiset's c-th index (a itself when the multisets
    are the columns, which _multiset_slices marks with columns None)."""
    return a if columns is None else np.take(a, columns[c], axis=1)


def _count_by_blocks(p_primes, q_primes, k: int, ell: int) -> int:
    """Ordered k-tuples of p_primes with product == 1 (mod m), summed over the
    ell-multisets m of q_primes with weight w(m): the census by modulus, k >= 2.

    A tuple is a (k-1)-multiset of P's columns, counted w times for the
    ordered (k-1)-tuples it stands for, and a last factor.  The moduli come in
    groups of _BLOCK_ELEMENTS // |P| (at least 1), one row per modulus, with
    the residues p mod m and their inverses by _tree_inverses.  The multisets
    come in slices of about _BLOCK_ELEMENTS (_multiset_slices; at k = 2 the
    columns themselves), and a group in blocks of _BLOCK_ELEMENTS // (slice)
    moduli.  Per block and slice: the product s of the inverses along each
    multiset (k - 2 multiply-mods), and the partners of s read off a table of
    P over [min P, max P]: a partner is c0 + j*m, with
    c0 = min P + ((s - min P) mod m), so (max P - min P) // min m + 1 gathers
    find them all.  w comes from the index rows, so a prime listed twice
    counts twice.  A p in m's multiset is the only kind sharing a prime with
    m (P holds primes): it is set to 1 in the tree and every multiset holding
    it is left out of the count; it is no partner, since its residue is not a
    unit.  Exact while |P|^k < 2^63.
    """
    if not p_primes:
        return 0
    p = np.asarray(p_primes, dtype=np.int64)
    n, t = len(p), k - 1
    lo, span = int(p.min()), int(p.max()) - int(p.min())
    # ends in a zero, where np.take's clip sends every index past max P; int32
    # holds any count of P, and halves the table the gathers hit at random
    table = np.bincount(p - lo, minlength=span + 2).astype(np.int32)
    columns_of = {v: np.flatnonzero(p == v).tolist() for v in set(p_primes) & set(q_primes)}
    multisets = _modulus_multisets(tuple(q_primes), ell)
    total = 0
    while group := list(itertools.islice(multisets, max(1, _BLOCK_ELEMENTS // n))):
        moduli = np.array([[mod] for mod, _combo, _w in group], dtype=np.int64)
        masked = tuple(zip(*(
            (j, i) for j, (_m, combo, _w) in enumerate(group)
            for q in set(combo) for i in columns_of.get(q, ())
        )))
        r = p % moduli
        if masked:
            r[masked] = 1
            shares = np.zeros(r.shape, dtype=bool)
            shares[masked] = True
        inverses = _tree_inverses(r, moduli)
        counts = np.zeros(len(group), dtype=np.int64)
        for columns, weights in _multiset_slices(n, t):
            height = max(1, _BLOCK_ELEMENTS // (n if weights is None else len(weights)))
            for b in range(0, len(group), height):
                block, m = slice(b, b + height), moduli[b : b + height]
                offsets = _gather(inverses[block], columns, 0)
                for c in range(1, t):
                    offsets *= _gather(inverses[block], columns, c)
                    if c < t - 1:  # the last product is reduced with the shift below
                        offsets %= m
                offsets -= lo
                offsets %= m
                hits = np.take(table, offsets, mode="clip")
                for _ in range(span // int(m.min())):
                    offsets += m
                    hits += np.take(table, offsets, mode="clip")
                if masked:
                    for c in range(t):
                        hits[_gather(shares[block], columns, c)] = 0
                counts[block] += hits.sum(axis=1) if weights is None else hits @ weights
        total += sum(w * c for (_m, _c, w), c in zip(group, counts.tolist()))
    return total


def _count_products_congruent_one(
    p: np.ndarray, k: int, m: int, combo: tuple[int, ...]
) -> int:
    """Number of ordered k-tuples of the primes p whose product is 1 mod m.

    m is the product of the prime multiset combo.  Residues sharing a prime
    with m never reach 1 and are dropped; the rest collapse to sorted
    (value, count) pairs, folded k-2 times by an outer product mod m and a
    sort-merge (in slices of _FOLD_CHUNK products).  The last factor is read
    off instead of folded: s completes a tuple exactly when the other k-1
    factors multiply to s^-1, and every s^-1 comes at once as s^(phi(m)-1).
    int64 residue products are exact because m < MODULUS_LIMIT = 2^31;
    counts are Python ints whenever n^k tuples could pass 2^63.
    """
    r = p % m
    for q in set(combo):
        r = r[r % q != 0]
    if not len(r):
        return 0
    values, counts = np.unique(r, return_counts=True)
    counts = counts.astype(np.int64 if len(r) ** k < 2**63 else object)
    if k == 1:
        return int(counts[values == 1 % m].sum())
    dist, dist_counts = values, counts
    rows = max(1, _FOLD_CHUNK // len(values))
    for _ in range(k - 2):
        folded, folded_counts = dist[:0], dist_counts[:0]
        for i in range(0, len(dist), rows):
            products = np.multiply.outer(dist[i : i + rows], values) % m
            weights = np.multiply.outer(dist_counts[i : i + rows], counts)
            folded, folded_counts = _merge(
                np.concatenate((folded, products.ravel())),
                np.concatenate((folded_counts, weights.ravel())),
            )
        dist, dist_counts = folded, folded_counts
    inverses = _euler_inverses(values, m, _phi_of_multiset(combo))
    order = np.argsort(inverses)
    inverses, counts = inverses[order], counts[order]
    at = np.minimum(np.searchsorted(dist, inverses), len(dist) - 1)
    hit = dist[at] == inverses
    return int(np.sum(counts[hit] * dist_counts[at[hit]]))


def count_exact(params: CensusParams) -> CensusResult:
    """Exact ordered census by the congruence engine (congruence_solutions)."""
    st = interval_stats(params.y)

    def count():
        census = census_over(st.product_primes, st.modulus_primes, params.k, params.ell)
        return census, None

    return _census_result(params, "residue-dp", count)


def census_over(
    p_primes: tuple[int, ...], q_primes: tuple[int, ...], k: int, ell: int
) -> int:
    """Ordered census over explicit prime lists (the engine under count_exact).

    A p sharing a prime with the modulus is never part of a counted tuple.
    """
    return congruence_solutions(p_primes, q_primes, k, ell)


def _multiset_rows(n: int, t: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Index rows i_1 <= ... <= i_t < n with lo <= i_1 < hi, one per t-multiset,
    in itertools.combinations_with_replacement order; t = 0 gives one empty row.

    Column j is built once, with a pointer from each entry to the entry of
    column j-1 it extends; the rows are read back along those pointers.
    """
    if t == 0:
        return np.zeros((1, 0), dtype=np.int64)
    cols = [np.arange(lo, n if hi is None else hi, dtype=np.int64)]
    parents = []
    for _ in range(t - 1):
        last = cols[-1]
        reps = n - last
        parents.append(np.repeat(np.arange(len(last)), reps))
        cols.append(np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - last, reps))
    rows = np.empty((len(cols[-1]), t), dtype=np.int64)
    at = np.arange(len(rows))
    for j in range(t - 1, -1, -1):
        rows[:, j] = cols[j][at]
        if j:
            at = parents[j - 1][at]
    return rows


def _quotients(p_primes, q_primes, k: int) -> range:
    """A range holding every quotient u = (r - 1)/m of a k-product r of
    p_primes by a k-product m of q_primes (k = ell)."""
    hi = (max(p_primes) ** k - 1) // min(q_primes) ** k
    return range(max(1, -(-(min(p_primes) ** k - 1) // max(q_primes) ** k)), hi + 1)


def _plan(p_primes, q_primes, k: int, ell: int, listing: bool) -> str:
    """The eligible plan with the smaller work estimate, refused over its cap.

    By modulus (every modulus below MODULUS_LIMIT, so residue products stay in
    int64): a listing ("modulus") takes, per modulus, |P| residues, then
    multiplies out k-1 residues and takes one inverse per (k-1)-prefix
    multiset.  A count ("modulus", _count_by_blocks, for k >= 2 while
    |P|^k < 2^63) takes, per modulus, k - 2 multiply-mods and ceil(g/2)
    passes of partner gathers, for g = (max P - min P) // min m + 1, per
    (k-1)-multiset of P, or the max P - min P entries of its partner table
    when those are more; at every CLI interval g <= 2.  The residue fold
    ("fold", _count_products_congruent_one) takes _fold_products per modulus,
    which is the same figure until its products saturate at the largest
    modulus; it counts when the blocks do not, or estimate more.  By quotient
    (k = ell, every product and modulus in int64): one pass over the
    k-products per quotient u, then a sorted join against the moduli.
    """
    for t in (k, ell):
        if t < 1:
            raise ValidationError(f"need multisets of t >= 1 primes, got t={t}")
    n = len(p_primes)
    largest = max(q_primes, default=1) ** ell
    moduli = math.comb(len(q_primes) + ell - 1, ell)
    work = {}
    if largest <= MODULUS_LIMIT:
        what = "pair search residues" if listing else "residue fold products"
        what += f" over the {ell}-prime moduli: {{}}"
        if listing:
            work["modulus"] = (what, moduli * (n + (k - 1) * (math.comb(n + k - 2, k - 1) if n else 0)))
        else:
            plan, ops = "fold", moduli * _fold_products(n, k, largest)
            if k >= 2 and n**k < 2**63:
                span = max(p_primes, default=0) - min(p_primes, default=0)
                gathers = span // min(q_primes, default=1) ** ell + 1
                blocks = max(moduli * (k - 2 + -(-gathers // 2)) * math.comb(n + k - 2, k - 1), span)
                # at k = 2 the fold's figure leaves out its sort: the blocks always count
                if k == 2 or blocks <= ops:
                    plan, ops = "modulus", blocks
            work[plan] = (what, ops)
    if k == ell and n and moduli and max(max(p_primes) ** k, largest) < 2**63:
        passes = len(_quotients(p_primes, q_primes, k)) * math.comb(n + k - 1, k) + moduli
        work["quotient"] = (f"quotient passes over the {k}-prime products: {{}}", passes)
    if not work:
        check_capacity("modulus {}", largest, MODULUS_LIMIT)
    plan = min(work, key=lambda name: work[name][1])
    check_capacity(*work[plan], PAIR_OP_LIMIT if listing else FOLD_OP_LIMIT)
    return plan


def _matches_by_modulus(p_primes, q_primes, k: int, ell: int):
    """Yield (r, m) multisets with r == 1 (mod m), modulus by modulus.

    Per modulus m: the residue of every (k-1)-prefix multiset, its inverse
    (prefixes sharing a prime with m have none), and every prime of P in that
    inverse's residue class whose index is at least the prefix's last index.
    """
    p = np.asarray(p_primes, dtype=np.int64)
    prefixes = _multiset_rows(len(p), k - 1)
    last = prefixes[:, -1] if k > 1 else np.zeros(1, dtype=np.int64)
    for m, combo, _weight in _modulus_multisets(tuple(q_primes), ell):
        res = p % m
        order = np.argsort(res, kind="stable")
        classes = res[order]
        pre = np.full(len(prefixes), 1 % m, dtype=np.int64)
        for j in range(k - 1):
            pre = pre * res[prefixes[:, j]] % m
        units = np.flatnonzero(np.gcd(pre, m) == 1)
        inverses = _euler_inverses(pre[units], m, _phi_of_multiset(combo))
        lo = np.searchsorted(classes, inverses, "left")
        counts = np.searchsorted(classes, inverses, "right") - lo
        owner = np.repeat(units, counts)
        tail = order[np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        keep = tail >= last[owner]
        rows = np.column_stack((prefixes[owner[keep]], tail[keep]))
        for r in p[rows].tolist():
            yield tuple(r), combo


def _matches_by_quotient(p_primes, q_primes, k: int, ell: int):
    """Yield (r, m) multisets with r == 1 (mod m), quotient by quotient (k = ell).

    The k-products come in blocks of about _FOLD_CHUNK; per block and quotient
    u, (r - 1)/u over the r == 1 (mod u) is looked up among the sorted moduli.
    """
    p = np.asarray(p_primes, dtype=np.int64)
    q = np.asarray(q_primes, dtype=np.int64)
    m_rows = _multiset_rows(len(q), ell)
    moduli = np.prod(q[m_rows], axis=1)
    order = np.argsort(moduli)
    moduli = moduli[order]
    quotients = _quotients(p_primes, q_primes, k)
    step = max(1, _FOLD_CHUNK // math.comb(len(p) + k - 2, k - 1))
    for lo in range(0, len(p), step):
        r_rows = _multiset_rows(len(p), k, lo, min(lo + step, len(p)))
        r = np.prod(p[r_rows], axis=1)
        for u in quotients:
            sel = np.flatnonzero((r - 1) % u == 0)
            v = (r[sel] - 1) // u
            at = np.minimum(np.searchsorted(moduli, v), len(moduli) - 1)
            hit = moduli[at] == v
            rs = p[r_rows[sel[hit]]].tolist()
            ms = q[m_rows[order[at[hit]]]].tolist()
            yield from zip(map(tuple, rs), map(tuple, ms))


def congruence_solutions(
    p_primes: tuple[int, ...],
    q_primes: tuple[int, ...],
    k: int,
    ell: int,
    listing: bool = False,
):
    """Every k-multiset r of p_primes and ell-multiset m of q_primes with
    r == 1 (mod m): counted as ordered tuples, sum w(r) w(m), or listed as
    (prod m, prod r, r, m) in sorted order when ``listing``.

    The one congruence engine under census_over and the pair search.  _plan
    picks by modulus, by residue fold or by quotient and refuses over
    FOLD_OP_LIMIT (counting) or PAIR_OP_LIMIT (listing) before any work.
    Counting by modulus is _count_by_blocks; the fold,
    _count_products_congruent_one per modulus, serves counts past int64 and
    long tuples whose residue products collapse below the modulus.
    """
    plan = _plan(p_primes, q_primes, k, ell, listing)
    if plan == "modulus" and not listing:
        return _count_by_blocks(p_primes, q_primes, k, ell)
    if plan == "fold":
        p = np.asarray(p_primes, dtype=np.int64)
        return sum(
            weight * _count_products_congruent_one(p, k, m, combo)
            for m, combo, weight in _modulus_multisets(tuple(q_primes), ell)
        )
    find = _matches_by_quotient if plan == "quotient" else _matches_by_modulus
    matches = find(p_primes, q_primes, k, ell)
    if listing:
        return sorted((math.prod(m), math.prod(r), r, m) for r, m in matches)
    return ordered_weight(matches)


def count_direct(params: CensusParams) -> CensusResult:
    """Reference counter: enumerate every ordered tuple.  Only for tiny inputs."""
    st = interval_stats(params.y)
    p_primes, q_primes = st.product_primes, st.modulus_primes
    tuples = ((len(p_primes), params.k), (len(q_primes), params.ell))
    check_power_capacity("direct enumeration of {} tuples", tuples, DIRECT_OP_LIMIT)

    def count():
        hits = 0
        for qs in itertools.product(q_primes, repeat=params.ell):
            m = math.prod(qs)
            for ps in itertools.product(p_primes, repeat=params.k):
                if math.prod(ps) % m == 1:
                    hits += 1
        return hits, None

    return _census_result(params, "direct", count)


def _accepted(words: np.ndarray, primes: np.ndarray):
    """What random.choice(primes) makes of each 32-bit word: the top
    n.bit_length() bits, n = len(primes), rejected when >= n.  Returns the
    accepted words' positions, the primes they pick, and rank[i], the
    accepted words before position i (i <= len(words))."""
    n = len(primes)
    picks = words >> np.uint32(32 - n.bit_length())
    ok = picks < n
    at = np.flatnonzero(ok)
    rank = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(ok, out=rank[1:])
    return at, primes[picks[at]], rank


def _sampled_hits(p_primes, q_primes, k: int, ell: int, samples: int, seed: int) -> int:
    """Tuples with product 1 mod m among ``samples`` drawn as the loop
    m = prod(choice(q_primes) for ell draws), r = r * choice(p_primes) % m for
    k draws, with choice from random.Random(seed), would draw them.

    The same Mersenne Twister words are read in blocks of _DRAW_BLOCK, in draw
    order, from getrandbits.  In a block, a whole tuple drawn from word s ends
    at word jump[s] (found by rank: the ell-th accepted Q-word, then the k-th
    accepted P-word after it); the tuple starts s, jump[s], jump[jump[s]], ...
    come at once by pointer doubling, and their hits are folded as arrays.
    Tuples longer than _CHAIN_DRAWS draws are walked one at a time instead.  A
    tuple the block cuts off is carried as (draws made, m, r) into the next.
    Residue products stay in int64 while max(q)^ell * max(p) < 2^63.  The
    helpers below read the current block's arrays.
    """
    wide = max(q_primes) ** min(ell, 64) * max(p_primes) >= 2**63
    p, q = (np.array(primes, dtype=object if wide else np.int64) for primes in (p_primes, q_primes))
    rng = random.Random(seed)
    hits, draws, m, r = 0, 0, 1, 1

    def resume(s, draws, m, r):
        """Draw on from word s of the current block; returns (the word after
        the tuple, or end if the block runs out first, draws, m, r)."""
        if draws < ell:
            a = q_rank[s]
            taken = q_val[a : a + ell - draws].tolist()
            m *= math.prod(taken)
            draws += len(taken)
            if draws < ell:
                return end, draws, m, r
            s = q_at[a + len(taken) - 1] + 1
        b = p_rank[s]
        taken = p_val[b : b + k + ell - draws].tolist()
        for v in taken:
            r = r * v % m
        draws += len(taken)
        return (p_at[b + len(taken) - 1] + 1 if draws == k + ell else end), draws, m, r

    def chain(s, most):
        """The whole tuples of the current block from word s on, at most
        ``most`` of them: (hits, tuples, the word after the last)."""
        # jump[s]: the word after a whole tuple drawn from word s, or end + 1
        # when the block cuts it off; jump[end + 1] = end + 1
        q_after = np.append(q_at, end)[np.minimum(q_rank + ell - 1, len(q_at))] + 1
        p_last = p_rank[np.minimum(q_after, end)] + k - 1
        jump = np.append(np.append(p_at, end)[np.minimum(p_last, len(p_at))] + 1, end + 1)
        jumps = [jump]  # jump^(2^j), enough powers for every tuple the block can hold
        while 2 ** len(jumps) < min(most, len(q_at) // ell, len(p_at) // k):
            jumps.append(jumps[-1][jumps[-1]])
        nodes = np.array([s])  # s, jump[s], jump[jump[s]], ...
        for power in reversed(jumps):
            nodes = np.concatenate((nodes, power[nodes]))
        nodes = np.sort(nodes)
        starts = nodes[jump[nodes] <= end][:most]
        a = q_rank[starts]
        mods = np.prod(q_val[a[:, None] + np.arange(ell)], axis=1)
        b = p_rank[q_at[a + ell - 1] + 1]
        res = 1
        for j in range(k):
            res = res * p_val[b + j] % mods
        after = jump[starts[-1]] if len(starts) else s
        return int(np.count_nonzero(res == 1)), len(starts), after

    while samples:
        words = np.frombuffer(
            rng.getrandbits(32 * _DRAW_BLOCK).to_bytes(4 * _DRAW_BLOCK, "little"), "<u4"
        )
        (q_at, q_val, q_rank), (p_at, p_val, p_rank) = _accepted(words, q), _accepted(words, p)
        end = len(words)
        s = 0
        while samples:
            if not draws and k + ell <= _CHAIN_DRAWS:
                hit_count, starts, s = chain(s, samples)
                hits += hit_count
                samples -= starts
                if not samples:
                    break
            s, draws, m, r = resume(s, draws, m, r)
            if draws < k + ell:
                break  # the block ran out; the tuple goes on in the next
            hits += r == 1
            samples -= 1
            draws, m, r = 0, 1, 1
    return hits


def count_sampled(params: CensusParams, samples: int, seed: int) -> CensusResult:
    """Monte Carlo census estimate from uniform ordered tuples.

    The tuples are the ones random.Random(seed).choice draws (see
    _sampled_hits), so a seed gives the same estimate as a per-sample loop.
    The reported std_error is the sample standard error of the scaled
    indicator mean.  samples * (k + l) draws are refused past SAMPLE_DRAW_LIMIT.
    """
    if samples < 1:
        raise ValidationError(f"need samples >= 1, got {samples}")
    draws = samples * (params.k + params.ell)
    check_capacity("Monte Carlo draws, samples * (k + l): {}", draws, SAMPLE_DRAW_LIMIT)
    st = interval_stats(params.y)
    p_primes, q_primes = st.product_primes, st.modulus_primes

    def count():
        hits = _sampled_hits(p_primes, q_primes, params.k, params.ell, samples, seed)
        space = len(q_primes) ** params.ell * len(p_primes) ** params.k
        p_hat = hits / samples
        spread = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
        return finite_float(lambda: p_hat * space), finite_float(lambda: space * spread)

    return _census_result(params, "sampled", count, empty=(0.0, 0.0))


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


def representation_counts(t: int, y: float) -> RepresentationTable:
    """Tabulate a_t(n) over products of t primes from (y/2, y].

    Enumerates multisets and assigns each the multinomial number of ordered
    arrangements; distinct multisets give distinct products by unique
    factorization, so no collisions occur.
    """
    p_primes = interval_stats(y).product_primes
    _check_multisets(REPRESENTATION_LIMIT, f"multisets of {t} product primes", (len(p_primes), t))
    counts = {n: w for n, _combo, w in _modulus_multisets(p_primes, t)}
    return RepresentationTable(t=t, y=y, counts=counts)
