#!/usr/bin/env python3
"""The bilinear route from pair correlations to Mobius orthogonality.

For F(n) = exp(2 pi i n sqrt 2): measure all pair correlations below a
prime cutoff, form the effective correlation level tau, and compare the
weighted sum |sum mu(n) F(n)| against 2 sqrt(tau log 1/tau) N. Then replay
the proof's inequality chain on the same data and print each line. The
verdict holds only when the bound beats the trivial bound sum |mu(n) F(n)|;
at this desk-scale cutoff it does not, so the verdict is inconclusive.
"""

import math
from fractions import Fraction

from horomu import (BoundedSequence, criterion_ledger, sieve_mobius,
                    tau_estimate, vinogradov_bound, weighted_sum)

N = 10 ** 5
CUTOFF = 50.0
horizon = int(math.ceil(1.3 * N))

F = BoundedSequence.exponential("sqrt2", horizon)
mu = sieve_mobius(horizon)

est = tau_estimate(F, CUTOFF)
print(f"pair correlations over primes <= {CUTOFF:.0f} ({len(est.pairs)} pairs), "
      f"M = floor(horizon / max(p1, p2)):")
top = sorted(est.pairs, key=lambda p: -p.normalized)[:5]
for pc in top:
    print(f"  ({pc.p1:2d},{pc.p2:2d})  M={pc.m:6d}  |sum|/M = {pc.normalized:.3e}")
tau_eff = max(est.tau_hat, 1 / math.log(CUTOFF))
print(f"tau_hat = {est.tau_hat:.3e} at {est.worst_pair}; the cutoff admits "
      f"tau >= 1/ln(cutoff) = {1 / math.log(CUTOFF):.4f}, so tau_eff = {tau_eff:.4f}")

lhs = abs(weighted_sum(mu, F, N))
bound = vinogradov_bound(tau_eff, N)
print(f"\n|sum mu(n) F(n)| = {lhs:.2f} vs bound {bound:.3e} "
      f"(margin {bound / lhs:.0f}x)")

print("\nfull inequality chain on the block decomposition "
      "(alpha = 0.3, j = 9..29):")
rep = criterion_ledger(mu, F, N, Fraction(3, 10), 9, 30, cutoff=CUTOFF)
for line in rep.chain:
    kind = "exact" if line.exact else "ref  "
    mark = "ok" if line.holds else "FAILS (asymptotic slack not yet available)"
    print(f"  [{kind}] {line.name:28s} {line.lhs:14.2f} <= {line.rhs:14.2f}  {mark}")
print(f"\nleftover below the product sets: {rep.leftover_count} integers, "
      f"|partial sum| = {abs(rep.leftover_sum):.2f}")
print(f"bound {rep.bound_rhs:.3e} against the trivial bound sum |mu(n) F(n)| = "
      f"{rep.trivial_bound:.3e} (ratio {rep.bound_rhs / rep.trivial_bound:.2f})")
print(f"verdict: {rep.verdict} (margin {rep.margin:.0f}x)")
