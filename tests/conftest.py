"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's own sieves
and reduction loops: trial division, exact rational arithmetic, direct
double loops. Sampling tests use one fixed, documented seed.
"""

from fractions import Fraction

import pytest
from hypothesis import settings

TEST_SEED = 20250810

# Property tests replay the same examples on every run and stay bounded.
settings.register_profile("horomu", derandomize=True, max_examples=200,
                          deadline=None)
settings.load_profile("horomu")


def factorize(n: int) -> dict:
    f = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


def mobius_oracle(n: int) -> int:
    if n == 1:
        return 1
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return (-1) ** len(f)


def liouville_oracle(n: int) -> int:
    if n == 1:
        return 1
    return (-1) ** sum(factorize(n).values())


def is_prime_oracle(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def reduce_oracle(x: Fraction, y: Fraction):
    """Fundamental-domain reduction in exact rational arithmetic.

    Independent of the library's fixed-point loop: shifts use exact
    floor(x + 1/2), inversions are exact rational division. Returns the
    reduced rational point and the integer matrix applied. Same boundary
    conventions: x in [-1/2, 1/2); on |z| = 1 keep x <= 0.
    """
    assert y > 0
    p, q, r, s = 1, 0, 0, 1
    for _ in range(100000):
        m = (x + Fraction(1, 2)).__floor__()
        if m:
            x -= m
            p -= m * r
            q -= m * s
        norm = x * x + y * y
        if norm < 1:
            x, y = -x / norm, y / norm
            p, q, r, s = -r, -s, p, q
        else:
            if norm == 1 and x > 0:
                x = -x
                p, q, r, s = -r, -s, p, q
            if r < 0 or (r == 0 and s < 0):
                p, q, r, s = -p, -q, -r, -s
            return x, y, ((p, q), (r, s))
    raise AssertionError("oracle reduction did not terminate")


def tracked_reduction(a, b, c, d):
    """The integer matrix (p, q, r, s) that Gauss-reduces the float64 rows
    (a, b) and (c, d), tracked alongside them.

    A reference copy of the orbit evaluator's earlier block loop: masked
    iterations on the four-entry rows (A, B, p, q) and (C, D, r, s), which
    start from the identity and take every shift and swap the coordinate
    rows take, so the integer entries stay exact. The arguments broadcast
    against each other.
    """
    import numpy as np

    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    top = np.stack([a, b, np.ones_like(a), np.zeros_like(a)])
    bot = np.stack([c, d, np.zeros_like(a), np.ones_like(a)])
    for _ in range(20000):
        den = bot[0] * bot[0] + bot[1] * bot[1]
        top -= np.floor((top[0] * bot[0] + top[1] * bot[1]) / den + 0.5) * bot
        flip = top[0] * top[0] + top[1] * top[1] < den
        if not flip.any():
            return top[2], top[3], bot[2], bot[3]
        top, bot = np.where(flip, -bot, top), np.where(flip, top, bot)
    raise AssertionError("reference reduction did not terminate")


@pytest.fixture(scope="session")
def primes_10k():
    from horomu.arith import sieve_primes
    return sieve_primes(10_000)


@pytest.fixture(scope="session")
def mobius_1k():
    from horomu.arith import sieve_mobius
    return sieve_mobius(1000)



def unsegmented_decomposition(params, primes):
    """The decomposition arrays from one minimum sieve over all of [0, N).

    A reference copy of the library's earlier builder: it sieved the whole
    window at once, one strided ``np.minimum`` per block prime, and then
    read off the classes in one downward pass of 2^14-index chunks, where
    q = n/p is read before its chunk is masked. Returns (tags, block_of,
    unique_prime, in_pq, q_sets) with the library's dtypes.
    """
    import math

    import numpy as np

    from horomu.decomp import prime_blocks

    n, j0, bounds = params.n, params.j0, params.bounds
    blocks = prime_blocks(params, primes)
    sentinel = np.iinfo(np.int32).max
    unique_prime = np.full(n, sentinel, dtype=np.int32)
    d0_floor = math.floor(params.d0)

    def strike(ps):
        for p in ps.tolist():
            np.minimum(unique_prime[p::p], p, out=unique_prime[p::p])

    for block in blocks:
        strike(block.primes[block.primes > d0_floor])
    tags = np.less(unique_prime, sentinel).view(np.int8)
    for block in blocks[:1]:  # a prime integer D0 opens the first block
        strike(block.primes[block.primes <= d0_floor])
    q_sets = {block.j: (np.flatnonzero(unique_prime[1:cap + 1] >= hi) + 1).astype(np.int32)
              for block, hi, cap in zip(blocks, bounds[1:].tolist(), params.caps)}
    block_table = np.repeat(np.arange(j0, params.j1 + 1, dtype=np.int16),
                            np.diff(bounds, append=bounds[-1] + 1))
    above = np.append(bounds[1:], sentinel).astype(np.int32)
    caps = np.array(params.caps + (0,), dtype=np.int32)
    block_of, in_pq = np.empty(n, dtype=np.int16), np.empty(n, dtype=bool)
    step = 1 << 14
    for lo in reversed(range(0, n, step)):
        chunk = slice(lo, lo + step)
        p, in_s = unique_prime[chunk], tags[chunk]
        k = block_table.take(p - bounds[0], mode="clip").astype(np.intp) - j0
        q = (np.arange(lo, lo + p.size) / p).astype(np.intp)
        unique = (unique_prime[q] >= above[k]) & in_s.view(bool)
        in_pq[chunk] = (q <= caps[k]) & unique
        block_of[chunk] = np.where(in_s.view(bool), k + j0, -1)
        p *= unique
        in_s += in_s  # TAG_MULTIPLE = 2 on S, less one where n is unique
        in_s -= unique.view(np.int8)
    return tags, block_of, unique_prime, in_pq, q_sets
