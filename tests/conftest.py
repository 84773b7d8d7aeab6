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


@pytest.fixture(scope="session")
def primes_10k():
    from horomu.arith import sieve_primes
    return sieve_primes(10_000)


@pytest.fixture(scope="session")
def mobius_1k():
    from horomu.arith import sieve_mobius
    return sieve_mobius(1000)
