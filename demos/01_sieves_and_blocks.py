#!/usr/bin/env python3
"""Sieve tables and geometric prime blocks.

Builds the Mobius and Liouville tables, shows the classical partial sums,
and slices the primes into blocks between consecutive powers of 1 + alpha.
"""

from fractions import Fraction

from horomu import (DecompositionParams, prime_blocks, sieve_liouville, sieve_mobius,
                    sieve_primes)

N = 10 ** 5

primes = sieve_primes(N)
print(f"primes up to {N}: {len(primes)} of them, largest {int(primes.primes[-1])}")

mu = sieve_mobius(N)
lam = sieve_liouville(N)
print("mu(1..10) =", [mu.value(n) for n in range(1, 11)])
print("Mertens sums M(N) = sum mu(n):")
for n in (100, 1000, 10_000, 100_000):
    print(f"  M({n}) = {int(mu.values[1:n + 1].sum()):6d}"
          f"    sum lambda = {int(lam.values[1:n + 1].sum()):6d}")

print()
print("blocks of primes in [(1+a)^j, (1+a)^(j+1)) for a = 1/2, that is in")
print("[ceil((1+a)^j), ceil((1+a)^(j+1))) for integer p:")
params = DecompositionParams(N, Fraction(1, 2), 2, 15)
blocks = prime_blocks(params, primes)
for b in blocks:
    head = ", ".join(str(int(p)) for p in b.primes[:6])
    more = " ..." if len(b.primes) > 6 else ""
    print(f"  j={b.j:2d}  [{b.lo:4d}, {b.hi:4d})  {len(b.primes):3d} primes: {head}{more}")

print()
print("each prime lands in exactly one block (half-open tiling):")
union = sorted(int(p) for b in blocks for p in b.primes)
inside = [int(p) for p in primes.primes if params.d0 <= p < params.d1]
print(f"  union of blocks == primes in [D0, D1) = [{float(params.d0):.2f}, "
      f"{float(params.d1):.2f}): {union == inside}")
