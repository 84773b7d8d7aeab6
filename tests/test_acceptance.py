"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 3 is known to fail at its pinned configuration: the measured
complement fraction at N = 1e6 sits ~15% above the prime product because
the window ends right where the inclusion-exclusion truncation wave peaks
(N just below D1^2); the same comparison passes at N = 1e5 and N = 1e7.
The test states the criterion faithfully and reports the failure honestly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from horomu.arith import sieve_liouville, sieve_mobius
from horomu.criterion import (BoundedSequence, criterion_ledger, tau_estimate,
                              vinogradov_bound, weighted_sum)
from horomu.correlator import (ParabolicElement, PointDescriptor,
                               classify_correlator, conjugation_exponent_check,
                               surd_group_element)
from horomu.decomp import (TAG_UNIQUE, DecompositionParams, build_decomposition,
                           classify, coverage_report, q_membership,
                           window_primes)
from horomu.dynamics import (ModularPoint, QuadratureSpec, bump_observable,
                             const_observable, domain_mass, haar_mean,
                             horocycle_point, mobius_disjointness_sum,
                             pair_correlation, reduce, split_observable)
from horomu.exactreal import frac_parts

from conftest import TEST_SEED, mobius_oracle, liouville_oracle, reduce_oracle

import random


def report(number, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  criterion-{number}: {detail}")
    return ok


def test_criterion_01_sieve_oracle_equivalence():
    t0 = time.time()
    n = 10 ** 5
    mu = sieve_mobius(n)
    mismatches = sum(1 for k in range(1, n + 1)
                     if mu.value(k) != mobius_oracle(k))
    lam100 = sieve_liouville(100)
    mu_sum = int(mu.values[1:101].sum())
    lam_sum = int(lam100.values[1:101].sum())
    oracle_mu = sum(mobius_oracle(k) for k in range(1, 101))
    oracle_lam = sum(liouville_oracle(k) for k in range(1, 101))
    elapsed = time.time() - t0
    ok = (mismatches == 0 and mu_sum == oracle_mu == 1
          and lam_sum == oracle_lam == -2 and elapsed < 5)
    assert report(1, ok,
                  f"mu sieve == trial division on [1,1e5] ({mismatches} mismatches), "
                  f"sum mu(n<=100) = {mu_sum}, sum lambda(n<=100) = {lam_sum}, "
                  f"{elapsed:.1f}s")


def test_criterion_02_decomposition_exactness():
    t0 = time.time()
    params = DecompositionParams(10 ** 5, Fraction(3, 10), 9, 30)
    primes = window_primes(params)
    dec = build_decomposition(params, primes)

    # disjointness + classification consistency, exhaustively via the
    # independent per-n classifier
    mismatch = 0
    for n in range(1, params.n):
        if classify(n, params, primes) != dec.classification(n):
            mismatch += 1

    # inclusion: products land in their block; injectivity: factor recovery
    inclusion_bad = 0
    injective_bad = 0
    seen = set()
    for j in params.block_range:
        block_primes = set(int(v) for v in dec.block(j).primes)
        qset = set(int(v) for v in dec.q_set(j))
        for p in block_primes:
            for q in qset:
                m = p * q
                got = dec.classification(m)
                if got.tag != TAG_UNIQUE or got.j != j or not dec.in_pq[m]:
                    inclusion_bad += 1
        for m in np.flatnonzero(dec.in_pq & (dec.block_of == j)).tolist():
            divisors = [p for p in block_primes if m % p == 0]
            q = m // divisors[0] if len(divisors) == 1 else None
            if (len(divisors) != 1 or divisors[0] * q != m or q not in qset
                    or m in seen):
                injective_bad += 1
            seen.add(m)
    elapsed = time.time() - t0
    ok = mismatch == 0 and inclusion_bad == 0 and injective_bad == 0 and elapsed < 30
    assert report(2, ok,
                  f"N=1e5 alpha=0.3 j0=9 j1=30: classifier mismatches {mismatch}, "
                  f"inclusion violations {inclusion_bad}, injectivity violations "
                  f"{injective_bad}, {elapsed:.1f}s")


def test_criterion_03_coverage_vs_mertens_product():
    t0 = time.time()
    params = DecompositionParams(10 ** 6, Fraction(3, 10), 9, 30)
    primes = window_primes(params)
    dec = build_decomposition(params, primes)
    rep = coverage_report(dec, primes)
    measured = float(rep.complement_fraction)
    product = rep.mertens_product
    rel = abs(measured - product) / product
    elapsed = time.time() - t0
    ok = rel < 0.10 and elapsed < 120
    assert report(3, ok,
                  f"N=1e6: measured complement fraction {measured:.6f} vs prime "
                  f"product {product:.6f}, relative gap {rel:.4f} "
                  f"(tolerance 0.10; gap is the truncation wave peaking near "
                  f"D1^2 = {float(params.d1) ** 2:.3g}), {elapsed:.1f}s")


def _closed_form_pair(delta: int, m: int) -> float:
    f_md = frac_parts("sqrt2", np.array([m * delta]))[0]
    f_d = frac_parts("sqrt2", np.array([delta]))[0]
    return abs(math.sin(math.pi * f_md) / math.sin(math.pi * f_d)) / m


def test_criterion_04_bilinear_criterion_end_to_end():
    t0 = time.time()
    n = 10 ** 6
    cutoff = 50.0
    F = BoundedSequence.exponential("sqrt2", n)
    mu = sieve_mobius(n)
    est = tau_estimate(F, cutoff)
    worst_rel = 0.0
    for pc in est.pairs:
        expect = _closed_form_pair(pc.p2 - pc.p1, pc.m)
        worst_rel = max(worst_rel, abs(pc.normalized - expect) / expect)
    tau_eff = max(est.tau_hat, 1 / math.log(cutoff))
    bound = vinogradov_bound(tau_eff, n)
    lhs = abs(weighted_sum(mu, F, n))
    margin = bound / lhs
    elapsed = time.time() - t0
    ok = worst_rel < 1e-9 and lhs <= bound and margin >= 10 and elapsed < 180
    assert report(4, ok,
                  f"tau_hat={est.tau_hat:.3e} at {est.worst_pair}, closed-form "
                  f"agreement {worst_rel:.2e} (tol 1e-9), |sum| = {lhs:.1f} <= "
                  f"bound {bound:.3e}, margin {margin:.0f}x (need >= 10), "
                  f"{elapsed:.1f}s")


def test_criterion_05_ledger_soundness():
    t0 = time.time()
    n = 10 ** 5
    horizon = int(math.ceil(1.3 * n))
    mu = sieve_mobius(horizon)
    F = BoundedSequence.exponential("sqrt2", horizon)
    rep = criterion_ledger(mu, F, n, Fraction(3, 10), 9, 30, cutoff=50.0)
    failures = [ln.name for ln in rep.chain if ln.exact and not ln.holds]
    direct = weighted_sum(mu, F, n - 1)
    via = sum(b.pair_sum for b in rep.blocks) + rep.leftover_sum
    path_gap = abs(direct - via) / max(1.0, abs(direct))
    elapsed = time.time() - t0
    ok = not failures and path_gap < 1e-9 and elapsed < 120
    assert report(5, ok,
                  f"N=1e5: exact chain lines all hold ({len(rep.chain)} lines, "
                  f"failures: {failures or 'none'}), leftover accounting gap "
                  f"{path_gap:.1e}, {elapsed:.1f}s")


def test_criterion_06_fixed_point_dynamics():
    t0 = time.time()
    ident = ModularPoint.identity()
    f = bump_observable(2.0, 0.5)
    base = float(f.eval(0.0, 1.0))
    coords_ok = all(horocycle_point(ident, n).point == 1j
                    for n in (0, 1, 10, 10 ** 3, 10 ** 6))
    corr_ok = True
    for n in (10, 10 ** 3, 10 ** 5, 10 ** 6):
        est = pair_correlation(f, ident, 2, 3, n, target=base * base)
        if abs(est.value - base * base) > 5e-16 * base * base:
            corr_ok = False
    n = 10 ** 6
    mu = sieve_mobius(n)
    repd = mobius_disjointness_sum(ident, f, n, mu)
    mertens = int(np.sum(mu.values[1:n + 1]))
    expect = base * mertens / n
    row = repd.row(n)
    dis_rel = abs(row.average - expect) / abs(expect)
    elapsed = time.time() - t0
    ok = coords_ok and corr_ok and dis_rel < 1e-12 and elapsed < 60
    assert report(6, ok,
                  f"constant orbit at i: {coords_ok}, correlation == f(base)^2 "
                  f"to machine rounding: {corr_ok}, weighted average matches "
                  f"f(base)*M(N)/N to {dis_rel:.1e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_07_reduction_correctness():
    t0 = time.time()
    rng = random.Random(TEST_SEED)
    bad = 0
    for _ in range(10 ** 4):
        z = complex(rng.uniform(-10, 10), rng.uniform(1e-4, 5.0))
        c = reduce(z)
        (a, b), (cc, d) = c.gamma
        in_domain = (-0.5 <= c.x < 0.5 and c.x ** 2 + c.y ** 2 >= 1 - 1e-12)
        image = (a * z + b) / (cc * z + d)
        idem = reduce(c.point).gamma == ((1, 0), (0, 1))
        if not (a * d - b * cc == 1 and in_domain and idem
                and abs(image - c.point) < 1e-9):
            bad += 1
    oracle_bad = 0
    for _ in range(100):
        xr = Fraction(rng.randint(-2000, 2000), rng.randint(1, 499))
        yr = Fraction(rng.randint(1, 600), rng.randint(1, 499))
        ox, oy, og = reduce_oracle(xr, yr)
        got = reduce((xr, yr))
        if (got.gamma != og or abs(got.x - float(ox)) > 1e-10
                or abs(got.y - float(oy)) > 1e-10):
            oracle_bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and oracle_bad == 0 and elapsed < 30
    assert report(7, ok,
                  f"1e4 random points: {bad} violations of gamma/domain/idempotence; "
                  f"100 oracle comparisons at 1e-10: {oracle_bad} mismatches, "
                  f"{elapsed:.1f}s")


def test_criterion_08_quadrature_normalization():
    t0 = time.time()
    mass = domain_mass()
    mass_rel = abs(mass - math.pi / 3) / (math.pi / 3)
    mean_one = haar_mean(const_observable(1.0))
    mean_err = abs(mean_one - 1.0)
    elapsed = time.time() - t0
    ok = mass_rel < 1e-5 and mean_err < 1e-10 and elapsed < 60
    assert report(8, ok,
                  f"domain mass {mass:.10f} vs pi/3 (rel {mass_rel:.1e}, tol 1e-5); "
                  f"mean(1) = {mean_one:.14f} (err {mean_err:.1e}, tol 1e-10), "
                  f"{elapsed:.1f}s")


def test_criterion_09_equidistribution_pair_correlation():
    t0 = time.time()
    xi = ModularPoint.lower("inv_e")
    f, c = split_observable(bump_observable(2.0, 0.5))
    est = pair_correlation(f, xi, 2, 3, 10 ** 6, target=0.0)
    elapsed = time.time() - t0
    ok = abs(est.value) < 0.05 and elapsed < 600
    assert report(9, ok,
                  f"generic point, mean-zero bump, speeds (2,3), N=1e6: "
                  f"|correlation| = {abs(est.value):.2e} (tol 0.05, target 0), "
                  f"{elapsed:.1f}s")


def test_criterion_10_orthogonality_trend():
    t0 = time.time()
    xi = ModularPoint.lower("inv_e")
    f, c = split_observable(bump_observable(2.0, 0.5))
    n = 10 ** 6
    mu = sieve_mobius(n)
    rep = mobius_disjointness_sum(xi, f, n, mu, ladder=[10 ** 4, 10 ** 5, 10 ** 6])
    v4 = abs(rep.row(10 ** 4).average)
    v5 = abs(rep.row(10 ** 5).average)
    v6 = abs(rep.row(10 ** 6).average)
    elapsed = time.time() - t0
    ok = v6 < 0.02 and v6 <= 1.2 * v5 and elapsed < 600
    assert report(10, ok,
                  f"|avg| at N=1e4/1e5/1e6: {v4:.2e} / {v5:.2e} / {v6:.2e} "
                  f"(need final < 0.02 and no >20% increase from 1e5 to 1e6), "
                  f"{elapsed:.1f}s")


def test_criterion_11_correlator_classification():
    t0 = time.time()
    table = [
        (PointDescriptor.infinity(), "full_rational"),
        (PointDescriptor.from_rational(Fraction(3, 4)), "full_rational"),
        (PointDescriptor.quadratic_surd(1, 0, -2), "trivial"),
        (PointDescriptor.quadratic_surd(1, -1, -1), "trivial"),
        (PointDescriptor.irrational("e"), "trivial"),
    ]
    table_ok = all(classify_correlator(d).kind == want for d, want in table)

    rng = random.Random(TEST_SEED)
    conj_bad = 0
    for _ in range(100):
        alpha = 0.0
        while abs(alpha) < 0.1:
            alpha = rng.uniform(-10, 10)
        beta = rng.uniform(-10, 10)
        alpha = Fraction(alpha)  # the sampled float, exactly
        if not conjugation_exponent_check(ParabolicElement(alpha, beta, 1 / alpha)):
            conj_bad += 1

    probe_bad = 0
    done = 0
    while done < 100:
        a = rng.randint(1, 6)
        b = rng.randint(-6, 6)
        cq = rng.randint(-6, 6)
        if math.gcd(math.gcd(a, abs(b)), abs(cq)) != 1:
            continue
        d = b * b - 4 * a * cq
        if d <= 0 or math.isqrt(d) ** 2 == d:
            continue
        u = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        t = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        if t * t - d * u * u <= 0:
            continue
        el = surd_group_element(a, b, cq, t, u)
        if el.is_rational_value != (u == 0):
            probe_bad += 1
        done += 1
    elapsed = time.time() - t0
    ok = table_ok and conj_bad == 0 and probe_bad == 0 and elapsed < 5
    assert report(11, ok,
                  f"descriptor table {{inf, 3/4, sqrt2, golden, e}} -> "
                  f"{{Q*, Q*, 1, 1, 1}}: {table_ok}; conjugation law failures "
                  f"{conj_bad}/100; rationality probe failures {probe_bad}/100, "
                  f"{elapsed:.1f}s")
