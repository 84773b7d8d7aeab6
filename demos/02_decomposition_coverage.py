#!/usr/bin/env python3
"""The block decomposition of [1, N) and its measured coverage.

Splits the window into well-factored products P_j * Q_j plus a leftover,
then prints the exact counts next to the asymptotic reference fractions
(alpha, alpha, 2 alpha, 3 alpha of N) that motivate the construction.
"""

from fractions import Fraction

from horomu import (DecompositionParams, build_decomposition, coverage_report,
                    default_schedule, sieve_primes, window_primes)

alpha = Fraction(3, 10)
params = DecompositionParams(10 ** 5, alpha, 9, 30)
print(f"N = {params.n}, alpha = {alpha}, blocks j = {params.j0}..{params.j1 - 1}")
print(f"D0 = (1+a)^{params.j0} = {float(params.d0):.4f}, "
      f"D1 = (1+a)^{params.j1} = {float(params.d1):.1f}")
print(f"(the canonical schedule for this alpha would be j0, j1 = "
      f"{default_schedule(0.25)} at alpha = 0.25 -- astronomically out of "
      "reach at desk N, hence the overrides)")

primes = window_primes(params)
dec = build_decomposition(params, primes)

print()
print(f"window [1, N) holds {dec.window_size} integers:")
print(f"  no factor in (D0, D1):            {dec.count_not_in_s:7d}")
print(f"  unique block factor (usable):     {dec.count_s - dec.count_multiple:7d}")
print(f"  repeated/multiple block factor:   {dec.count_multiple:7d}")
print(f"  inside some product set P_j Q_j:  {dec.count_pq:7d}")
print(f"  leftover (all the rest):          {dec.leftover_count:7d}")

rep = coverage_report(dec, primes)
print()
print("measured counts vs the asymptotic reference fractions of N:")
for line in rep.lines:
    mark = "<=" if line.holds else "> "
    print(f"  {line.name:22s} {line.measured:8d} {mark} {line.reference:10.1f}")
print()
print(f"prime product over (D0, D1):  {rep.mertens_product:.6f}")
print(f"measured complement fraction: {float(rep.complement_fraction):.6f}")
print(f"asymptotic value 1/j0:        {rep.schedule_reference:.6f}")

print()
print("a concrete factored element: 187 = 11 * 17 at alpha = 1, j0=1, j1=4")
p2 = DecompositionParams(1000, Fraction(1), 1, 4)
d2 = build_decomposition(p2, sieve_primes(64))
got = d2.classification(187)
print(f"  classify(187) -> {got.name}, block {got.j}, block prime {got.prime}, "
      f"cofactor {187 // got.prime}")
