"""Census of prime-tuple product congruences.

Counts ordered tuples (p_1, ..., p_k, q_1, ..., q_l) with each p_i a prime in
(y/2, y], each q_j a prime in (y/4, y/2], and

    p_1 * ... * p_k == 1  (mod q_1 * ... * q_l).

Exposes the one congruence engine (congruence_solutions), which counts or
lists the matching (product multiset, modulus multiset) pairs by modulus or by
quotient, the exact counter built on it, a brute-force direct counter for
cross-checks, a Monte Carlo estimator (its draws are read in monte_carlo),
and the exact rational main/error reference terms the count is compared
against.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError, check_capacity, check_power_capacity, finite_float
from .prime_tools import PrimeStats, interval_stats

MODULUS_LIMIT = 2**31
DIRECT_OP_LIMIT = 50_000_000
FOLD_OP_LIMIT = 300_000_000
PAIR_OP_LIMIT = 5_000_000
REPRESENTATION_LIMIT = 5_000_000
SAMPLE_DRAW_LIMIT = 300_000_000
EXACT_BITS_LIMIT = 2**20
# k-products per slice of the quotient plan: work within FOLD_OP_LIMIT could
# otherwise hold 3*10^8 products (gigabytes) at once
_FOLD_CHUNK = 1 << 20
# residues per group of moduli, and multiset products per block, in the census
# by blocks.  Timed on uint32 residues, median of 5 fresh processes (best of 3
# runs each) at k = 2, ell = 1, y = 10^5: 2^15 took 0.39 s, 2^16 0.30 s and
# 2^17 0.39 s; at y = 1000, ell = 2 all three took 0.04 s at k = 3 and 1.2 to
# 1.4 s at k = 4
_BLOCK_ELEMENTS = 1 << 16


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


def _row_weights(rows: np.ndarray, dtype=None) -> np.ndarray:
    """Ordered tuples behind each row of nondecreasing indices: t! / prod(mult!)
    over the repeats of its t indices, the one multinomial weight routine.
    Exact in ``dtype``: by default int64 while t! < 2^63, else Python ints
    (object); int64 also holds every weight of rows over n indices while n^t < 2^63.
    """
    dtype = dtype or (np.int64 if math.factorial(rows.shape[1]) < 2**63 else object)
    # w built up column by column as w * (j + 1) / run, with run the
    # repeats of the last index; dividing by run / gcd first stays exact
    weights, run = np.ones(len(rows), dtype=dtype), 1
    for j in range(1, rows.shape[1]):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        g = np.gcd(run, j + 1)
        weights //= run // g
        weights *= (j + 1) // g
    return weights


def _ordered_count(r_rows: np.ndarray, m_rows: np.ndarray, dtype) -> int:
    """Ordered tuples behind (r, m) index rows: sum w(r) w(m), each term exact in ``dtype``."""
    return sum((_row_weights(r_rows, dtype) * _row_weights(m_rows, dtype)).tolist())


def _multiset_bits(n: int, t: int) -> int:
    """A lower bound on log2 C(n + t - 1, t), the t-multisets (t >= 1) of n
    items, in integers: C(N, t) >= (N/t)^t and C(N, n - 1) >= (N/(n - 1))^(n - 1)
    for N = n + t - 1; 0 for n <= 1."""
    if n < 2:
        return 0
    big = n + t - 1
    return max(t * ((big // t).bit_length() - 1), (n - 1) * ((big // (n - 1)).bit_length() - 1))


def _power_bits(b: int, e: int) -> int:
    """(b**e).bit_length() for b >= 1 without forming b**e: square and multiply
    on bounds lo * 2^s <= b^e <= hi * 2^s truncated to e.bit_length() + 64
    bits, whose relative error stays below 2^-62; b**e is formed only when they
    straddle a power of two.
    """
    lo = hi = 1
    shift, width = 0, e.bit_length() + 64
    for bit in bin(e)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if bit == "1":
            lo, hi = lo * b, hi * b
        cut = max(0, hi.bit_length() - width)
        lo, hi, shift = lo >> cut, -(-hi >> cut), shift + cut
    if lo.bit_length() == hi.bit_length():
        return lo.bit_length() + shift
    return (b**e).bit_length()


def _check_multisets(cap: int, what: str, *classes: tuple[int, int], per: int = 1) -> int:
    """Number of ways to pick one t-multiset (t >= 1) of n items from each (n, t)
    class; refused when ``per`` units of work for each pass ``cap``, without
    forming the count once its _multiset_bits bound has passed.
    """
    for _n, t in classes:
        if t < 1:
            raise ValidationError(f"need multisets of t >= 1 primes, got t={t}")

    def size():
        return math.prod(math.comb(n + t - 1, t) for n, t in classes)

    empty = not (per and all(n for n, _t in classes))  # a factor 0 makes the figure 0
    low = 0 if empty else sum(_multiset_bits(n, t) for n, t in classes) + per.bit_length() - 1
    check_capacity(what + ": {}", lambda: size() * per, cap, low)
    return size()


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
    and before lambda is built: the Fraction gcds that build the main term
    and error bound from lambda are quadratic in their bits (writing them
    out is not, see errors.digits).
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


def _tree_inverses(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The inverse of every unit r[j, i] mod m[j, 0], by a product tree per row.

    Columns are multiplied in pairs, level by level, down to one column:
    column j with column j + half, so each factor is a contiguous slice (the
    last column of an odd level goes up alone, as if paired with a 1).  Each
    row's total is inverted once by pow, and walking back down, a child's
    inverse is its parent's times its sibling.  About 3 multiply-mods per
    entry, written in place in r's dtype, which must hold m^2 (int64 for
    m < 2^31, uint32 for m < 2^16).
    """

    def mulmod(a, b, out):
        np.remainder(np.multiply(a, b, out=out), m, out=out)

    levels = [r]
    while levels[-1].shape[1] > 1:
        level = levels[-1]
        half = level.shape[1] // 2
        up = np.empty_like(level[:, : level.shape[1] - half])
        mulmod(level[:, :half], level[:, half : 2 * half], up[:, :half])
        up[:, half:] = level[:, 2 * half :]
        levels.append(up)
    roots = zip(levels.pop().ravel().tolist(), m.ravel().tolist())
    inv = np.array([[pow(x, -1, q)] for x, q in roots], dtype=r.dtype)
    while levels:
        level = levels.pop()
        half = level.shape[1] // 2
        parent, inv = inv, np.empty_like(level)
        mulmod(parent[:, :half], level[:, half : 2 * half], inv[:, :half])
        mulmod(parent[:, :half], level[:, :half], inv[:, half : 2 * half])
        inv[:, 2 * half :] = parent[:, half:]
    return inv


def _gather(a: np.ndarray, columns, c: int) -> np.ndarray:
    """a's entries at each multiset's c-th index (a itself when the multisets
    are the columns, which _count_by_blocks marks with columns None)."""
    return a if columns is None else np.take(a, columns[c], axis=1)


def _count_by_blocks(p_primes, q_primes, k: int, ell: int, listing: bool = False):
    """Ordered k-tuples (k >= 2) of p_primes with product == 1 (mod m), summed
    over the ell-multisets m of q_primes with weight w(m): the census by
    modulus.  With ``listing``, the (r, m) multisets themselves instead, as
    index rows (r_rows into p_primes, in index order, and m_rows into q_primes).

    A tuple is a (k-1)-multiset of P's columns, counted w times for the
    ordered (k-1)-tuples it stands for, and a last factor.  The moduli come in
    groups of _BLOCK_ELEMENTS // |P| (at least 1), one row per modulus, with
    the residues p mod m (units: P and Q share no prime) and their inverses by
    _tree_inverses.  The multisets come in slices of about _BLOCK_ELEMENTS
    (_row_slices, as contiguous index columns; at k = 2 the columns
    themselves, rows None), and a group in blocks of _BLOCK_ELEMENTS //
    (slice) moduli.  Per block and slice: the product s of the inverses along
    each multiset (k - 2 multiply-mods), and the partners of s read off a
    table of P over [min P, max P]: a partner is
    c0 + j*m, with c0 = min P + ((s - min P) mod m), so
    (max P - min P) // min m + 1 gathers find them all.  A count weighs each
    hit by w, from the index rows; a listing reads the partner's index off
    the table and keeps it when it is at least the multiset's last.  Counts
    are int64 while |P|^k < 2^63, else Python ints (object).
    """
    p = np.asarray(p_primes, dtype=np.int64)
    n, t = len(p), k - 1
    m_rows, all_moduli, m_weights = next(_multisets(q_primes, ell))
    r_parts, m_parts = [np.zeros((0, k), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    lo, span = int(p.min()), int(p.max()) - int(p.min())
    # 1 at each p (1 + its index in a listing), ending in a zero where np.take's
    # clip sends every index past max P; int32 halves the table the gathers hit at random
    table = np.zeros(span + 2, dtype=np.int32)
    table[p - lo] = np.arange(1, n + 1) if listing else 1
    # residues in the narrowest exact width: uint32 when it holds P, a product
    # of two residues plus the shift below (m^2 + m) and the last partner
    # offset (m * gathers); at the CLI's intervals, every modulus below 2^16
    top, gathers = int(all_moduli.max()), span // int(all_moduli.min()) + 1
    dtype = np.uint32 if max(int(p.max()), top * top + top, top * gathers) < 2**32 else np.int64
    p, all_moduli = p.astype(dtype), all_moduli[:, None].astype(dtype)
    counts = np.zeros(len(m_rows), dtype=np.int64 if n**k < 2**63 else object)
    size = max(1, _BLOCK_ELEMENTS // n)
    for g in range(0, len(m_rows), size):
        moduli, tally = all_moduli[g : g + size], counts[g : g + size]
        inverses = _tree_inverses(p % moduli, moduli)
        for rows in _row_slices(n, t, _BLOCK_ELEMENTS) if t > 1 else [None]:
            # np.take gathers 4x faster along a contiguous index
            columns, weights = (None, None) if rows is None else (rows.T.copy(), _row_weights(rows, counts.dtype))
            height = max(1, _BLOCK_ELEMENTS // (n if rows is None else len(rows)))
            for b in range(0, len(moduli), height):
                block, m = slice(b, b + height), moduli[b : b + height]
                offsets = _gather(inverses[block], columns, 0)
                for c in range(1, t):
                    offsets *= _gather(inverses[block], columns, c)
                    if c < t - 1:  # the last product is reduced with the shift below
                        offsets %= m
                offsets += m - lo % m  # (s - lo) mod m, never below 0 unsigned
                if t == 1:  # inverses are below m, so the shifted ones below 2m
                    offsets -= m * (offsets >= m)
                else:
                    offsets %= m
                for shift in range(span // int(m.min()) + 1):
                    if shift:
                        offsets += m
                    hits = np.take(table, offsets, mode="clip")
                    if not listing:
                        tally[block] += hits.sum(axis=1) if weights is None else hits @ weights
                        continue
                    row, col = np.nonzero(hits)
                    head = col[:, None] if columns is None else columns[:, col].T
                    tail = hits[row, col] - 1
                    keep = tail >= head[:, -1]
                    r_parts.append(np.column_stack((head[keep], tail[keep])))
                    m_parts.append(g + b + row[keep])
    if listing:
        return np.concatenate(r_parts), m_rows[np.concatenate(m_parts)]
    return sum(w * c for w, c in zip(m_weights.tolist(), counts.tolist()))


def _count_products_congruent_one(p: np.ndarray, k: int, m: int) -> int:
    """Number of ordered k-tuples (k >= 2) of the primes p whose product is
    1 mod m, for m coprime to every p.

    The products of j factors are a histogram over the residues mod m,
    folded k-2 times: each distinct residue v of one factor, of count c,
    scatters the support s to s*v mod m, adding c times its count (no
    collisions: x -> x*v is one-to-one mod m).  The support is the residues
    of one factor at the first fold, then read off the histogram, so k <= 3
    never scans the whole array.  The last factor is read off instead of
    folded: v completes a tuple exactly when the other k-1 factors multiply
    to v^-1, and every v^-1 comes off one _tree_inverses row.  int64 residue products are exact because
    m < MODULUS_LIMIT = 2^31; counts are Python ints whenever n^k tuples
    could pass 2^63.
    """
    values, counts = np.unique(p % m, return_counts=True)
    counts = counts.astype(np.int64 if len(p) ** k < 2**63 else object)
    hist = np.zeros(m, dtype=counts.dtype)
    hist[values] = counts
    for fold in range(k - 2):
        support = np.flatnonzero(hist) if fold else values
        tuples, hist = hist[support], np.zeros(m, dtype=counts.dtype)
        for v, c in zip(values.tolist(), counts.tolist()):
            hist[support * v % m] += tuples * c
    inverses = _tree_inverses(values[None, :], np.array([[m]], dtype=np.int64))[0]
    return int(np.sum(counts * hist[inverses]))


def count_exact(params: CensusParams) -> CensusResult:
    """Exact ordered census by the congruence engine (congruence_solutions)."""
    st = interval_stats(params.y)

    def count():
        return congruence_solutions(st.product_primes, st.modulus_primes, params.k, params.ell), None

    return _census_result(params, "residue-dp", count)


def _multiset_rows(n: int, t: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Index rows i_1 <= ... <= i_t < n with lo <= i_1 < hi, one per t-multiset
    (t >= 1), in itertools.combinations_with_replacement order.

    Column j is built once, with a pointer from each entry to the entry of
    column j-1 it extends; the rows are read back along those pointers.
    """
    cols = [np.arange(lo, n if hi is None else hi, dtype=np.int64)]
    parents = []
    for _ in range(t - 1):
        last = cols[-1]
        reps = n - last
        parents.append(np.repeat(np.arange(len(last)), reps))
        cols.append(np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - last, reps))
    rows = np.empty((len(cols[-1]), t), dtype=np.int64)
    at = slice(None)  # the last column is read as it is, not through a copy
    for j in range(t - 1, -1, -1):
        rows[:, j] = cols[j][at]
        if j:
            at = parents[j - 1][at]
    return rows


def _row_slices(n: int, t: int, size: int):
    """The rows of _multiset_rows(n, t), t >= 1, in slices by first index of
    about ``size`` rows (at least the rows of one first index); none at n = 0."""
    step = max(1, size // math.comb(max(n, 1) + t - 2, t - 1))
    for lo in range(0, n, step):
        yield _multiset_rows(n, t, lo, min(lo + step, n))


def _multisets(primes: Sequence[int], t: int, size: int | None = None):
    """The t-multisets (t >= 1) of primes as three columns, in
    combinations_with_replacement order: the index rows into primes (int64),
    their products, int64 while max(primes)^t < 2^63 and else Python ints
    (object), and their ordered-tuple weights (_row_weights); a repeated
    prime is a second entry.  The one builder of a multiset class.  Yields
    one slice (empty when primes is), or with ``size`` slices by first index
    of about size multisets (_row_slices).
    """
    dtype = np.int64 if int(max(primes, default=0)) ** t < 2**63 else object
    values = np.asarray(primes, dtype=dtype)
    for rows in _row_slices(len(primes), t, size) if size else (_multiset_rows(len(primes), t),):
        products = values[rows[:, 0]]
        for j in range(1, t):
            products *= values[rows[:, j]]
        yield rows, products, _row_weights(rows)  # no local: a caller that drops them frees them


def _class_sums(primes: Sequence[int], t: int) -> list[int]:
    """h_0, ..., h_t, with h_j the sum of the j-prime moduli of primes (the
    products of their j-multisets), from the power sums p_i by Newton's
    identities j h_j = sum over i <= j of p_i h_(j-i), exact in integers."""
    powers = [sum(map(pow, primes, itertools.repeat(i))) for i in range(1, t + 1)]
    sums = [1]
    for j in range(1, t + 1):
        sums.append(sum(powers[i - 1] * sums[j - i] for i in range(1, j + 1)) // j)
    return sums


def _quotients(p_primes, q_primes, k: int) -> range:
    """A range holding every quotient u = (r - 1)/m of a k-product r of
    p_primes by a k-product m of q_primes (k = ell)."""
    hi = (max(p_primes) ** k - 1) // min(q_primes) ** k
    return range(max(1, -(-(min(p_primes) ** k - 1) // max(q_primes) ** k)), hi + 1)


def _plan(p_primes, q_primes, k: int, ell: int, listing: bool) -> str:
    """The eligible plan with the smaller work estimate, refused over its cap,
    for nonempty P and Q and 1 <= ell <= k.

    By modulus ("modulus", _count_by_blocks; k >= 2 and every modulus below
    MODULUS_LIMIT, so residue products stay in int64): per modulus, k - 2
    multiply-mods and ceil(g/2) passes of partner gathers, for
    g = (max P - min P) // min m + 1, per (k-1)-multiset of P, or the
    max P - min P entries of its partner table when those are more, or in a
    count the k - 2 Python passes of each group of moduli (_multiset_rows'
    and the multiply-mods'), each charged as a block of _BLOCK_ELEMENTS; at
    every CLI interval g <= 2.  A listing does not charge its passes: its
    cap is PAIR_OP_LIMIT, under which a block each would refuse k > 78 even
    for one modulus, and construct's u0 cap, min P^k / 2^31 < 2^454, keeps
    its k below 310.  The residue fold ("fold",
    _count_products_congruent_one; counts at k >= 3): k - 2 scatters of the
    |P| residues over each modulus m's histogram, (k - 2)|P| sum m, with sum m
    from _class_sums; it counts when the blocks estimate more.  Once
    |P|^k >= 2^63 counts are Python ints, and either count figure takes each
    multiset product or scatter once per 64-bit word of a count; a Python
    pass, over residues and index columns, is charged once whatever the
    width.  By
    quotient (k = ell, every product and modulus in int64; the one plan at
    k = 1): one pass over the k-products per quotient u, then a sorted join
    against the moduli.
    """
    n, top_p, top_q = len(p_primes), max(p_primes), max(q_primes)
    work = {}  # plan: (what, figure or a function forming it, lower bound on its log2)
    # a prime is at least 2: past the limit's bit length ell never forms q^ell
    if k >= 2 and ell < MODULUS_LIMIT.bit_length() and top_q**ell <= MODULUS_LIMIT:
        span = top_p - min(p_primes)
        gathers = span // min(q_primes) ** ell + 1
        moduli = math.comb(len(q_primes) + ell - 1, ell)
        per = moduli * (k - 2 + -(-gathers // 2))
        passes = 0 if listing else -(-moduli // max(1, _BLOCK_ELEMENTS // n)) * (k - 2) * _BLOCK_ELEMENTS
        words = 1 if listing else _power_bits(n, k) // 64 + 1
        plan, low = "modulus", (per * words).bit_length() - 1 + _multiset_bits(n, k - 1)

        def ops():
            return max(per * math.comb(n + k - 2, k - 1) * words, span, passes)

        what = "pair search residues" if listing else "residue products by blocks"
        if not listing and k > 2:  # at k = 2 the fold has no scatter: the blocks always count
            fold = (k - 2) * n * _class_sums(q_primes, ell)[ell] * words
            if fold.bit_length() <= low or fold < ops():  # below 2^low, the blocks are not formed
                plan, ops, low, what = "fold", lambda: fold, fold.bit_length() - 1, "residue fold products"
        work[plan] = (what + f" over the {ell}-prime moduli: {{}}", ops, low)
    if k == ell and k < 63 and max(top_p, top_q) ** k < 2**63:
        moduli = math.comb(len(q_primes) + ell - 1, ell)
        passes = len(_quotients(p_primes, q_primes, k)) * math.comb(n + k - 1, k) + moduli
        work["quotient"] = (f"quotient passes over the {k}-prime products: {{}}", lambda: passes, 0)
    if not work:  # past MODULUS_LIMIT at k >= 2, past int64 products at k = 1
        check_capacity("modulus {}", lambda: top_q**ell, MODULUS_LIMIT, ell * (top_q.bit_length() - 1))
        check_capacity(f"{k}-prime products in int64: {{}}", lambda: top_p**k, 2**63 - 1, k * (top_p.bit_length() - 1))
    # two plans only at k = ell < 63, where every figure is small
    plan = min(work, key=lambda name: work[name][1]()) if len(work) > 1 else next(iter(work))
    what, figure, low = work[plan]
    check_capacity(what, figure, PAIR_OP_LIMIT if listing else FOLD_OP_LIMIT, low)
    return plan


def _matches_by_quotient(p_primes, q_primes, k: int, ell: int, listing: bool = False):
    """Ordered tuples behind the (r, m) multisets with r == 1 (mod m), sum
    w(r) w(m), found quotient by quotient (k = ell); with ``listing``, the
    multisets as index rows (r_rows into p_primes, m_rows into q_primes).

    The k-products come in slices of about _FOLD_CHUNK; per slice and quotient
    u, (r - 1)/u over the r == 1 (mod u) is looked up among the sorted moduli,
    which are distinct (Q holds distinct primes), so one match at most.  A
    count holds only the moduli and their weights and adds w(r) w(m) per hit,
    exact in int64 while k! l! < 2^63, else in Python ints (object).
    """
    # a count takes no index rows, so none is held next to the sort
    *m_rows, moduli, m_weights = next(_multisets(q_primes, ell))[0 if listing else 1 :]
    order = np.argsort(moduli)
    dtype = np.int64 if math.factorial(k) * math.factorial(ell) < 2**63 else object
    moduli, m_weights, m_rows = moduli[order], m_weights[order].astype(dtype), [rows[order] for rows in m_rows]
    del order
    quotients = _quotients(p_primes, q_primes, k)
    total, r_parts, m_parts = 0, [np.zeros((0, k), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for r_rows, r1, r_weights in _multisets(p_primes, k, _FOLD_CHUNK):
        r1 -= 1  # r - 1, once per slice
        for u in quotients:
            sel = np.flatnonzero(r1 % u == 0)
            v = r1[sel] // u
            at = np.minimum(np.searchsorted(moduli, v), len(moduli) - 1)
            hit = moduli[at] == v
            if listing:
                r_parts.append(r_rows[sel[hit]])
                m_parts.append(at[hit])
            else:
                total += sum((r_weights[sel[hit]] * m_weights[at[hit]]).tolist())
    return (np.concatenate(r_parts), m_rows[0][np.concatenate(m_parts)]) if listing else total


def congruence_solutions(
    p_primes: Sequence[int], q_primes: Sequence[int], k: int, ell: int, listing: bool = False
):
    """Every k-multiset r of p_primes and ell-multiset m of q_primes with
    r == 1 (mod m): counted as ordered tuples, sum w(r) w(m), or listed when
    ``listing`` as columns (r_rows, m_rows, products, moduli) sorted by
    (modulus, product).  The index rows of r into p_primes (n x k) and of m
    into q_primes (n x ell) are int64; the products and moduli are too while
    max(p_primes)^k and k! l! (which bounds w(r) w(m)) are below 2^63, else
    Python ints (object); every modulus a plan admits is below 2^63.

    The one congruence engine under the census and the pair search.  Its
    input is the census's: two disjoint lists of distinct primes, such as
    the (y/2, y] and (y/4, y/2] primes, and 1 <= ell <= k; any other is
    refused with ValidationError.  _plan picks by modulus (k >= 2), by
    residue fold or by quotient (k = ell, and so every k = 1) and refuses
    over FOLD_OP_LIMIT (counting) or PAIR_OP_LIMIT (listing) before any
    work.  The two listing kernels, _count_by_blocks by modulus and
    _matches_by_quotient, share one contract: a count, or with ``listing``
    the index rows; the fold, _count_products_congruent_one per modulus,
    counts long tuples whose residue products fill the residues mod m.
    """
    try:
        primes = np.concatenate([np.asarray(p_primes, dtype=np.int64), np.asarray(q_primes, dtype=np.int64)])
    except OverflowError:  # a prime past int64 stays exact as a Python int
        primes = np.array([*p_primes, *q_primes], dtype=object)
    primes.sort(kind="stable")  # merges the two ascending runs of the census in linear time
    if (primes[1:] == primes[:-1]).any():
        raise ValidationError("need two disjoint lists of distinct primes")
    del primes
    if not 1 <= ell <= k:
        raise ValidationError(f"need 1 <= ell <= k, got k={k}, ell={ell}")
    if not (p_primes and q_primes):  # (y/4, y/2] holds no prime for y < 4
        r_rows, m_rows = np.zeros((0, k), dtype=np.int64), np.zeros((0, ell), dtype=np.int64)
        return (r_rows, m_rows, r_rows[:, 0], m_rows[:, 0]) if listing else 0
    plan = _plan(p_primes, q_primes, k, ell, listing)
    if plan == "fold":
        p = np.asarray(p_primes, dtype=np.int64)
        moduli, weights = next(_multisets(q_primes, ell))[1:]
        return sum(
            weight * _count_products_congruent_one(p, k, m)
            for m, weight in zip(moduli.tolist(), weights.tolist())
        )
    kernel = _matches_by_quotient if plan == "quotient" else _count_by_blocks
    if not listing:
        return kernel(p_primes, q_primes, k, ell)
    r_rows, m_rows = kernel(p_primes, q_primes, k, ell, listing=True)
    bound = max(max(p_primes) ** k, math.factorial(k) * math.factorial(ell))
    dtype = np.int64 if bound < 2**63 else object
    products = np.prod(np.asarray(p_primes, dtype=dtype)[r_rows], axis=1)
    moduli = np.prod(np.asarray(q_primes, dtype=dtype)[m_rows], axis=1)
    order = np.lexsort((products, moduli))
    return r_rows[order], m_rows[order], products[order], moduli[order]


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


def count_sampled(params: CensusParams, samples: int, seed: int) -> CensusResult:
    """Monte Carlo census estimate from uniform ordered tuples.

    The tuples are the ones random.Random(seed).choice draws (see
    monte_carlo._sampled_hits, imported only here), so a seed gives the same
    estimate as a per-sample loop.
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
        from .monte_carlo import _sampled_hits

        hits = _sampled_hits(p_primes, q_primes, params.k, params.ell, samples, seed)
        space = len(q_primes) ** params.ell * len(p_primes) ** params.k
        p_hat = hits / samples
        spread = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
        return finite_float(lambda: p_hat * space), finite_float(lambda: space * spread)

    return _census_result(params, "sampled", count, empty=(0.0, 0.0))


@dataclass(frozen=True)
class RepresentationTable:
    """Counts a_t(n) of ordered t-tuples of product-range primes with product n,
    as two columns in multiset order: the products n, as _multisets builds
    them, and the counts a_t(n), int64 while P^t < 2^63 (which bounds any sum
    of them) and else Python ints (object).
    """

    t: int
    y: float
    products: np.ndarray = field(repr=False, compare=False)
    counts: np.ndarray = field(repr=False, compare=False)
    total: int
    max_count: int


def _representation_size(t: int, y: float) -> int:
    """The products of a_t's table, C(P+t-1, t); refused past REPRESENTATION_LIMIT."""
    p_count = len(interval_stats(y).product_primes)
    return _check_multisets(REPRESENTATION_LIMIT, f"multisets of {t} product primes", (p_count, t))


def representation_counts(t: int, y: float) -> RepresentationTable:
    """Tabulate a_t(n) over products of t primes from (y/2, y].

    Enumerates multisets and assigns each the multinomial number of ordered
    arrangements; distinct multisets give distinct products by unique
    factorization, so no collisions occur.
    """
    p_primes = interval_stats(y).product_primes
    _representation_size(t, y)
    dtype = np.int64 if len(p_primes) ** t < 2**63 else object
    parts = [(n, a.astype(dtype, copy=False)) for _rows, n, a in _multisets(p_primes, t, _BLOCK_ELEMENTS)]
    products, counts = (np.concatenate(column) for column in zip(*parts))
    return RepresentationTable(t, y, products, counts, int(counts.sum()), int(counts.max()))
