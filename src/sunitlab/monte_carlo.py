"""Monte Carlo census: the tuples random.Random(seed).choice would draw.

tuple_census.count_sampled imports this module only when it samples, so the
other commands neither compile nor load it.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

# Mersenne Twister words per numpy block, and the longest tuple (k + ell
# draws) the draw machine parses; longer ones are walked one at a time.
# Timed in-process, best of 3 runs of 3*10^6 draws (walk / machine): at
# y = 10^4, (k, ell) = (2, 1) 2.37 / 0.14 s, (30, 10) 0.57 / 0.49 s, (36, 12)
# 0.55 / 0.53 s, (40, 8) 0.59 / 0.82 s (residues past int64) and (30, 30)
# 0.44 / 0.51 s; at y = 30, (30, 10) 0.66 / 0.36 s.  The machine's cost per
# word grows with k + ell.  At (2, 1), y = 10^4, blocks of 2^13, 2^14, 2^15
# and 2^16 words took 0.20, 0.17, 0.13 and 0.15 s, and peaked at 0.25, 0.48,
# 0.94 and 1.87 MB of traced allocations
_DRAW_BLOCK = 1 << 15
_CHAIN_DRAWS = 40


def _picks(words: np.ndarray, primes) -> tuple[np.ndarray, np.ndarray]:
    """What random.choice(primes) makes of each 32-bit word: its top
    n.bit_length() bits (n = len(primes)), an index taken only when below n."""
    n = len(primes)
    picks = words >> np.uint32(32 - n.bit_length())
    return picks, picks < n


def _draw_tables(k: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The draw machine on four words at once, as two uint8 tables of 256
    patterns x k + ell states.

    A state s is the draws made in the tuple in progress; a word is taken
    when its top bits pick a Q prime and s < ell, or a P prime and s >= ell,
    and each taken word moves s to (s + 1) mod (k + ell).  A pattern holds
    four words' bits: bit 7 - j says word j picks a Q prime, bit 3 - j a P
    prime.  The tables give the state after the four words and the words
    taken (bit 3 - j for word j).
    """
    K = k + ell
    pattern = np.arange(256)[:, None]
    state = np.repeat(np.arange(K, dtype=np.uint8)[None, :], 256, axis=0)
    taken = np.zeros((256, K), dtype=np.uint8)
    for j in range(4):
        take = np.where(state < ell, pattern >> 7 - j, pattern >> 3 - j) & 1
        taken |= (take << 3 - j).astype(np.uint8)
        state = np.where(take, (state + 1) % K, state).astype(np.uint8)
    return state, taken


def _chunk_starts(maps: np.ndarray, start: int) -> np.ndarray:
    """The state at which each chunk begins, for chunks whose maps on the
    states are the rows of ``maps`` (uint8), the first beginning at ``start``.

    An up-sweep composes the maps of chunks 2j and 2j + 1, level by level
    (the last row of an odd level goes up alone), until at most 64 rows are
    left; those are walked in Python, cheaper than the numpy calls of six
    more levels each way.  A down-sweep then hands each node's start to its
    left child, and the left child's image of it to its right child.
    """
    K = maps.shape[1]
    levels = [maps]
    while len(levels[-1]) > 64:
        level = levels[-1]
        half = len(level) // 2
        pairs = level[: 2 * half].reshape(half, 2 * K)  # row j: maps 2j and 2j + 1
        up = np.take(pairs, pairs[:, :K] + np.arange(K, 2 * K * half, 2 * K)[:, None])
        levels.append(np.concatenate((up, level[2 * half :])))
    starts = []
    for row in levels.pop().tolist():
        starts.append(start)
        start = row[start]
    starts = np.array(starts, dtype=np.uint8)
    for level in reversed(levels):
        half = len(level) // 2
        below = np.empty(len(level), dtype=np.uint8)
        below[0::2] = starts
        below[1::2] = np.take(level, starts[:half] + np.arange(0, 2 * K * half, 2 * K))
        starts = below
    return starts


def _sampled_hits(p_primes, q_primes, k: int, ell: int, samples: int, seed: int) -> int:
    """Tuples with product 1 mod m among ``samples`` drawn as the loop
    m = prod(choice(q_primes) for ell draws), r = r * choice(p_primes) % m for
    k draws, with choice from random.Random(seed), would draw them.

    The same Mersenne Twister words are read in blocks of _DRAW_BLOCK, in
    draw order, from getrandbits.  Tuples of up to _CHAIN_DRAWS draws are
    parsed by the draw machine (_parse), longer ones walked (_walk).  Residue
    products stay in int64 while max(q)^ell * max(p) < 2^63.
    """
    wide = max(q_primes) ** min(ell, _CHAIN_DRAWS) * max(p_primes) >= 2**63
    p, q = (np.array(primes, dtype=object if wide else np.int64) for primes in (p_primes, q_primes))
    rng = random.Random(seed)
    if k + ell <= _CHAIN_DRAWS:
        step, carry = functools.partial(_parse, tables=_draw_tables(k, ell)), []
    else:
        step, carry = _walk, (0, 1, 1)
    hits = 0
    while samples:
        words = np.frombuffer(
            rng.getrandbits(32 * _DRAW_BLOCK).to_bytes(4 * _DRAW_BLOCK, "little"), "<u4"
        )
        found, tuples, carry = step(words, p, q, k, ell, samples, carry)
        hits += found
        samples -= tuples
    return hits


def _parse(words, p, q, k: int, ell: int, samples: int, carry: list, tables):
    """(hits, tuples, carry) over one block: at most ``samples`` whole
    tuples, the first completing the draws ``carry`` holds (fewer than
    k + ell Python ints), and the draws of a tuple the block cuts off.

    Per 8-word chunk, the Q- and P-pick bits are packed into two patterns;
    one gather of the tables and one composed gather give the chunk's map
    on the states, and _chunk_starts each chunk's start state.  The taken
    words are then the set bits of the chunks' taken masks at their starts,
    and K = k + ell at a time they are the tuples: the j-th taken word of a
    tuple picks a Q prime when j < ell.
    """
    K = k + ell
    after, taken = tables
    q_pick, q_ok = _picks(words, q)
    p_pick, p_ok = _picks(words, p)
    q_bits, p_bits = np.packbits(q_ok), np.packbits(p_ok)
    first = (q_bits & 0xF0) | (p_bits >> 4)
    second = ((q_bits << 4) | (p_bits & 0x0F)).astype(np.intp) * K  # flat table row
    maps = np.take(after, second[:, None] + np.take(after, first, axis=0))
    cell = first.astype(np.intp) * K + _chunk_starts(maps, len(carry))
    mask = np.take(taken, cell) << 4 | np.take(taken, second + np.take(after, cell))
    at = np.flatnonzero(np.unpackbits(mask).view(bool))

    def values(positions, drawn):
        """The primes the words at ``positions`` draw, after ``drawn`` draws."""
        return [
            int(q[q_pick[w]] if drawn + i < ell else p[p_pick[w]])
            for i, w in enumerate(positions.tolist())
        ]

    hits = tuples = 0
    if carry:
        need = K - len(carry)
        carry = carry + values(at[:need], len(carry))
        if len(carry) < K:
            return 0, 0, carry
        m, r = math.prod(carry[:ell]), 1
        for v in carry[ell:]:
            r = r * v % m
        hits, tuples, at = int(r == 1), 1, at[need:]
    whole = min(len(at) // K, samples - tuples)
    rows = at[: whole * K].reshape(whole, K)
    mods = res = 1
    for j in range(K):
        primes, pick = (q, q_pick) if j < ell else (p, p_pick)
        drawn = np.take(primes, np.take(pick, rows[:, j]))
        if j < ell:
            mods = mods * drawn
        else:
            res = res * drawn % mods
    hits += int(np.count_nonzero(res == 1))
    tuples += whole
    return hits, tuples, values(at[whole * K :], 0) if tuples < samples else []


def _walk(words, p, q, k: int, ell: int, samples: int, carry: tuple):
    """(hits, tuples, carry) over one block, one tuple at a time: each
    takes its ell Q-words and k P-words from the picks by rank.  A tuple the
    block cuts off is carried as (draws made, m, r)."""
    q_pick, q_ok = _picks(words, q)
    p_pick, p_ok = _picks(words, p)
    (q_at, q_rank), (p_at, p_rank) = (
        (np.flatnonzero(ok), np.concatenate(([0], np.cumsum(ok)))) for ok in (q_ok, p_ok)
    )
    q_val, p_val = q[q_pick[q_at]], p[p_pick[p_at]]
    hits = tuples = s = 0
    draws, m, r = carry
    while tuples < samples:
        if draws < ell:
            a = q_rank[s]
            drawn = q_val[a : a + ell - draws].tolist()
            m *= math.prod(drawn)
            draws += len(drawn)
            if draws < ell:
                break
            s = q_at[a + len(drawn) - 1] + 1
        b = p_rank[s]
        drawn = p_val[b : b + k + ell - draws].tolist()
        for v in drawn:
            r = r * v % m
        draws += len(drawn)
        if draws < k + ell:
            break  # the block ran out; the tuple goes on in the next
        s = p_at[b + len(drawn) - 1] + 1
        hits += r == 1
        tuples += 1
        draws, m, r = 0, 1, 1
    return hits, tuples, (draws, m, r)
