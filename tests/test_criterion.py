import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from horomu import criterion, decomp
from horomu.arith import SEGMENT, MultiplicativeTable, sieve_mobius, sieve_primes
from horomu.criterion import (TRIG_CHUNK, BoundedSequence, bilinear_sum,
                              criterion_ledger, tau_estimate, vinogradov_bound,
                              weighted_sum)
from horomu.decomp import DecompositionParams, build_decomposition, product_sets
from horomu.dynamics import (ModularPoint, bump_observable, orbit_sequence,
                             pair_correlation, split_observable)
from horomu.errors import (CapacityError, DomainError, EmptyPairSetError,
                           HorizonError, ValidationError)
from horomu.exactreal import as_symbolic, frac_parts

from conftest import TEST_SEED, mobius_oracle


def closed_form_magnitude(theta_name: str, delta: int, M: int) -> float:
    """|sin(pi M delta theta) / sin(pi delta theta)| via the shared exact angles."""
    f_md = frac_parts(theta_name, np.array([M * delta]))[0]
    f_d = frac_parts(theta_name, np.array([delta]))[0]
    return abs(math.sin(math.pi * f_md) / math.sin(math.pi * f_d))


# the error of one exp(2j pi x) for an x from frac_parts, or of one chunk
# factor: an angle within 2^-51 (fl(pi)) + 2^-51 (the product) + 2 pi
# (2^-54 + 2^-77) of the exact one, and libm's cos and sin within 1 ulp each
EXP_ENTRY_ERROR = (8 + math.pi + math.sqrt(2)) * 2.0 ** -53 + 2 * math.pi * 2.0 ** -77


def exponential_error_bound(n: int) -> float:
    """B(n) of ``BoundedSequence.exponential`` from its parts: a table entry
    times a chunk factor, each within EXP_ENTRY_ERROR, rounded by sqrt(5) u
    times the product of the moduli, and P within 2 of theta 2^96."""
    e = EXP_ENTRY_ERROR
    return (2 * e + e * e + math.sqrt(5) * 2.0 ** -53 * (1 + e) ** 2
            + 2 * math.pi * n * 2.0 ** -95)


@pytest.fixture(scope="module")
def exp_sqrt2_40k():
    return BoundedSequence.exponential("sqrt2", 40_000)


class TestBoundedSequence:
    def test_bound_enforced(self):
        with pytest.raises(ValidationError):
            BoundedSequence.constant(1.5, 10)

    def test_exponential_is_unimodular(self, exp_sqrt2_40k):
        mags = np.abs(exp_sqrt2_40k.values[1:])
        assert np.allclose(mags, 1.0, rtol=0, atol=1e-14)

    def test_eval_and_horizon(self, exp_sqrt2_40k):
        v = exp_sqrt2_40k.eval(7)
        expect = cmath.exp(2j * math.pi * frac_parts("sqrt2", np.array([7]))[0])
        assert abs(v - expect) < 1e-15
        with pytest.raises(HorizonError):
            exp_sqrt2_40k.eval(40_001)


    @pytest.mark.parametrize("theta", ["inv_e", "sqrt2", "3/8", "-1/2*pi",
                                       "1000000000000000000000000*sqrt2"])
    @pytest.mark.parametrize("horizon", [TRIG_CHUNK - 5, TRIG_CHUNK, 3 * TRIG_CHUNK + 17,
                                         3_900_000])
    def test_exponential_within_its_error_bound(self, theta, horizon):
        # against e(n theta) at 400 bits, at the first index, the chunk
        # seam, the horizon and random indices (horizon TRIG_CHUNK leaves a
        # last chunk of one value); the bound is the one the exponential's
        # docstring derives, not a fit to these errors
        F = BoundedSequence.exponential(theta, horizon)
        rng = np.random.default_rng(TEST_SEED)
        ns = {1, TRIG_CHUNK - 1, TRIG_CHUNK, TRIG_CHUNK + 1, horizon,
              *rng.integers(1, horizon + 1, 200).tolist()}
        worst = 0.0
        with mp.workprec(400):  # n * 10^24 sqrt2 has 102 bits above the units
            x = as_symbolic(theta).mpf_value(400)
            for n in sorted(k for k in ns if k <= horizon):
                v = F.values[n]
                err = abs(mp.mpc(v.real, v.imag) - mp.expjpi(2 * mp.frac(n * x)))
                worst = max(worst, float(err) / exponential_error_bound(n))
        print(f"exp:theta={theta}, horizon {horizon}: max error / bound {worst:.3f}")
        assert worst <= 1

    def test_exponential_matches_one_shot_formula(self):
        # every index, against exp(2j pi frac_parts) over the whole range at
        # once: that formula is within EXP_ENTRY_ERROR of e(n theta), so the
        # two differ by at most B(n) + EXP_ENTRY_ERROR
        horizon = 3 * SEGMENT + 17
        F = BoundedSequence.exponential("inv_e", horizon)
        ns = np.arange(horizon + 1, dtype=np.int64)
        expect = np.exp(2j * np.pi * frac_parts("inv_e", ns))
        expect[0] = 0
        ratio = np.abs(F.values - expect).max() / (
            exponential_error_bound(horizon) + EXP_ENTRY_ERROR)
        print(f"exp:theta=inv_e against the one-shot formula: max gap / bound {ratio:.3f}")
        assert ratio <= 1

    def test_caller_array_is_copied(self):
        vals = np.full(5, 0.5 + 0j)
        F = BoundedSequence(vals, "half")
        assert vals[0] == 0.5 and vals.flags.writeable
        assert F.values[0] == 0 and not F.values.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0), 1.01])
    def test_non_finite_rejected_in_any_segment(self, bad):
        for n in (3, SEGMENT + 5):
            vals = np.full(SEGMENT + 10, 0.5 + 0j)
            vals[n] = bad
            with pytest.raises(ValidationError):
                BoundedSequence(vals, "bad")
            vals[0] = 1
            vals[1] = 1
            with pytest.raises(ValidationError):
                MultiplicativeTable(vals.size - 1, vals, "bad")


class TestBilinearSum:
    def test_constant_sequence(self):
        F = BoundedSequence.constant(1, 1000)
        pc = bilinear_sum(F, 2, 3, 100)
        assert pc.total == 100 + 0j and pc.normalized == 1.0

    def test_geometric_closed_form(self, exp_sqrt2_40k):
        pc = bilinear_sum(exp_sqrt2_40k, 2, 3, 10_000)
        expect = closed_form_magnitude("sqrt2", 1, 10_000)
        assert abs(abs(pc.total) - expect) <= 1e-9 * expect

    def test_mobius_double_loop(self, mobius_1k):
        mu = sieve_mobius(3000)
        F = BoundedSequence(mu.values, mu.label)
        pc = bilinear_sum(F, 2, 3, 1000)
        brute = sum(mobius_oracle(2 * m) * mobius_oracle(3 * m)
                    for m in range(1, 1001))
        assert pc.total == pytest.approx(brute, abs=1e-12)

    def test_swap_symmetry(self, exp_sqrt2_40k):
        a = bilinear_sum(exp_sqrt2_40k, 5, 7, 2000)
        b = bilinear_sum(exp_sqrt2_40k, 7, 5, 2000)
        assert a.total == pytest.approx(b.total.conjugate(), rel=1e-12)
        assert a.normalized == pytest.approx(b.normalized, rel=1e-12)

    def test_phase_scaling_invariance(self, exp_sqrt2_40k, mobius_1k):
        c = cmath.exp(0.739j)
        G = BoundedSequence(exp_sqrt2_40k.values * c, "scaled")
        a = bilinear_sum(exp_sqrt2_40k, 2, 5, 3000)
        b = bilinear_sum(G, 2, 5, 3000)
        assert a.normalized == pytest.approx(b.normalized, rel=1e-12)
        wa = abs(weighted_sum(mobius_1k, exp_sqrt2_40k, 1000))
        wb = abs(weighted_sum(mobius_1k, G, 1000))
        assert wa == pytest.approx(wb, rel=1e-12)

    def test_horizon_error(self, exp_sqrt2_40k):
        with pytest.raises(HorizonError):
            bilinear_sum(exp_sqrt2_40k, 2, 3, 20_000)


class TestTauEstimate:
    def test_constant_single_pair(self):
        F = BoundedSequence.constant(1, 100)
        est = tau_estimate(F, 3)
        assert est.tau_hat == 1.0 and est.worst_pair == (2, 3)

    def test_exclusion_monotone(self, exp_sqrt2_40k):
        full = tau_estimate(exp_sqrt2_40k, 20)
        pruned = tau_estimate(exp_sqrt2_40k, 20, excluded=[full.worst_pair])
        assert pruned.tau_hat <= full.tau_hat
        assert pruned.worst_pair != full.worst_pair
        assert pruned.excluded == [tuple(sorted(full.worst_pair))]

    def test_superset_monotonicity(self, exp_sqrt2_40k):
        small = tau_estimate(exp_sqrt2_40k, 13)
        large = tau_estimate(exp_sqrt2_40k, 20)
        assert large.tau_hat >= small.tau_hat - 1e-15

    def test_closed_form_per_pair(self, exp_sqrt2_40k):
        est = tau_estimate(exp_sqrt2_40k, 20)
        for pc in est.pairs:
            expect = closed_form_magnitude("sqrt2", pc.p2 - pc.p1, pc.m) / pc.m
            assert abs(pc.normalized - expect) <= 1e-9 * expect, (pc.p1, pc.p2)

    def test_window_caps_pair_length(self, exp_sqrt2_40k):
        est = tau_estimate(exp_sqrt2_40k, 10, window=10_000)
        for pc in est.pairs:
            assert pc.m == 10_000 // max(pc.p1, pc.p2)

    def test_empty_cutoff(self):
        F = BoundedSequence.constant(1, 100)
        with pytest.raises(EmptyPairSetError):
            tau_estimate(F, 2)


def assert_matches_oracle(F, est):
    """Every pair from the Gram path against the per-pair sum."""
    for pc in est.pairs:
        oracle = bilinear_sum(F, pc.p1, pc.p2, pc.m)
        assert oracle.m == pc.m
        assert abs(oracle.total - pc.total) <= 1e-13 * pc.m, (pc.p1, pc.p2)
        assert abs(oracle.normalized - pc.normalized) <= 1e-13, (pc.p1, pc.p2)
    worst = max(est.pairs, key=lambda pc: pc.normalized)
    assert est.tau_hat == worst.normalized
    assert est.worst_pair == (worst.p1, worst.p2)


class TestPairGram:
    def test_default_policy(self, exp_sqrt2_40k):
        est = tau_estimate(exp_sqrt2_40k, 30)
        assert len(est.pairs) == 45
        assert_matches_oracle(exp_sqrt2_40k, est)

    def test_uniform_m(self, exp_sqrt2_40k):
        est = tau_estimate(exp_sqrt2_40k, 30, M=1000)
        assert {pc.m for pc in est.pairs} == {1000}
        assert est.m_policy == "uniform:1000"
        assert_matches_oracle(exp_sqrt2_40k, est)

    def test_window(self, exp_sqrt2_40k):
        est = tau_estimate(exp_sqrt2_40k, 30, window=9_999)
        assert all(pc.m == 9_999 // pc.p2 for pc in est.pairs)
        assert_matches_oracle(exp_sqrt2_40k, est)

    def test_excluded_pairs(self, exp_sqrt2_40k):
        # every pair through 23 is excluded, so 23 leaves the Gram matrix
        through_23 = [(p, 23) for p in (2, 3, 5, 7, 11, 13, 17, 19, 29)]
        skip = [(3, 2), (5, 19), (17, 29)] + through_23
        est = tau_estimate(exp_sqrt2_40k, 30, excluded=skip)
        assert len(est.pairs) == 45 - len(skip)
        assert not {frozenset((pc.p1, pc.p2)) for pc in est.pairs} \
            & {frozenset(s) for s in skip}
        assert est.excluded == sorted(tuple(sorted(s)) for s in skip)
        assert_matches_oracle(exp_sqrt2_40k, est)

    def test_excluding_the_largest_prime_keeps_its_horizon_free(self, exp_sqrt2_40k):
        # 29 * 1500 is past the horizon, but 29 is in no remaining pair
        skip = [(p, 29) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
        est = tau_estimate(exp_sqrt2_40k, 30, M=1500, excluded=skip)
        assert max(pc.p2 for pc in est.pairs) == 23
        assert_matches_oracle(exp_sqrt2_40k, est)

    def test_mobius_sequence(self):
        mu = sieve_mobius(20_000)
        F = BoundedSequence(mu.values, mu.label)
        est = tau_estimate(F, 40)
        assert_matches_oracle(F, est)

    def test_constant_sequence_is_exactly_one(self):
        F = BoundedSequence.constant(1, 10_000)
        est = tau_estimate(F, 50)
        assert est.tau_hat == 1.0 and est.worst_pair == (2, 3)
        assert all(pc.total == pc.m for pc in est.pairs)

    def test_ties_go_to_the_first_pair_in_row_major_order(self):
        # every pair ties at 1; (2, 7) comes first by rows, (3, 5) by columns
        F = BoundedSequence.constant(1, 10_000)
        est = tau_estimate(F, 50, excluded=[(2, 3), (2, 5)])
        assert est.tau_hat == 1.0 and est.worst_pair == (2, 7)

    def test_many_tiles(self, exp_sqrt2_40k, monkeypatch):
        # tiles of at most 50 entries: rows end inside tiles and the
        # active prefix shrinks from tile to tile; each tile's product is
        # added in bands of one or two rows
        monkeypatch.setattr(criterion, "ROW_TILE", 50)
        monkeypatch.setattr(criterion, "TILE_MIN_WIDTH", 1)
        monkeypatch.setattr(criterion, "GRAM_BAND", 16)
        sizes, row_tiles = [], criterion._row_tiles

        def spy(*args):
            for m0, tile in row_tiles(*args):
                sizes.append(tile.size)
                yield m0, tile
        monkeypatch.setattr(criterion, "_row_tiles", spy)
        est = tau_estimate(exp_sqrt2_40k, 30, window=3_001)
        assert_matches_oracle(exp_sqrt2_40k, est)
        assert len(sizes) > 10 and max(sizes) <= 50
        est = tau_estimate(exp_sqrt2_40k, 30, M=37)
        assert_matches_oracle(exp_sqrt2_40k, est)

    def test_tiles_at_full_segment(self):
        # many times ROW_TILE entries over five rows at the full tile
        # size: rows end inside tiles, and the active prefix shrinks
        horizon = 900_000
        assert sum(horizon // p for p in (2, 3, 5, 7, 11)) > 10 * criterion.ROW_TILE
        F = BoundedSequence.exponential("inv_e", horizon)
        assert_matches_oracle(F, tau_estimate(F, 12))

    def test_memory_stays_flat_in_n(self):
        # the estimate holds one tile of ROW_TILE entries and its conjugate
        # copy beside the Gram and its norms, whatever N is; tiles of 2^20
        # entries peaked at 34 MB at N = 1e6
        tile_bytes = criterion.ROW_TILE * 16
        peaks = {}
        for n in (1_000_000, 2_000_000):
            F = BoundedSequence.exponential("inv_e", n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                est = tau_estimate(F, 1000)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        gram_bytes = est.gram.nbytes
        assert est.primes.size == 168
        assert peaks[2_000_000] < 3 * tile_bytes + 3 * gram_bytes, peaks
        assert peaks[2_000_000] <= peaks[1_000_000] + 64 * 2 ** 10, peaks

    def test_horizon_errors(self, exp_sqrt2_40k):
        tau_estimate(exp_sqrt2_40k, 30, M=40_000 // 29)  # last index that fits
        for kwargs in ({"M": 40_000 // 29 + 1}, {"M": 0}, {"window": 28}):
            with pytest.raises(HorizonError):
                tau_estimate(exp_sqrt2_40k, 30, **kwargs)

    def test_malformed_excluded(self, exp_sqrt2_40k):
        for skip in ([(2,)], [(2, 3, 5)], [None], [("a", 3)], [(2, 4)], [(3, 3)],
                     [(2, 31)]):
            with pytest.raises(ValidationError):
                tau_estimate(exp_sqrt2_40k, 30, excluded=skip)
        with pytest.raises(EmptyPairSetError):
            tau_estimate(exp_sqrt2_40k, 5, excluded=[(2, 3), (2, 5), (3, 5)])

    def test_prime_budget(self, exp_sqrt2_40k, monkeypatch):
        # 4203 primes below 40000: refused before any sum or horizon check
        with pytest.raises(CapacityError):
            tau_estimate(exp_sqrt2_40k, 40_000)
        # the budget counts the primes left in some pair: 10 below 30, and 9
        # once every pair through 29 is excluded
        monkeypatch.setattr(criterion, "PAIR_PRIME_BUDGET", 9)
        with pytest.raises(CapacityError):
            tau_estimate(exp_sqrt2_40k, 30)
        skip = [(p, 29) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
        assert tau_estimate(exp_sqrt2_40k, 30, excluded=skip).primes.size == 9

    def test_retained_memory_is_the_gram_matrix(self):
        # 669 primes below 5000 and 223,446 pairs: the estimate keeps the
        # Gram matrix, not one object per pair
        F = BoundedSequence.exponential("inv_e", 100_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            est = tau_estimate(F, 5000)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert est.primes.size == 669
        assert held < 2 * 669 ** 2 * 16, held


@pytest.mark.parametrize("t", ["inv_e", "sqrt2", Fraction(1, 2)])
def test_pair_totals_match_the_orbit_correlations(t):
    # F(n) = f1(xi u^n) for the centred bump: each pair total over m is the
    # two-speed orbit correlation of the dynamics leg times m
    f1, _ = split_observable(bump_observable())
    xi = ModularPoint.lower(t)
    est = tau_estimate(orbit_sequence(xi, f1, 3000), 7)
    assert len(est.pairs) == 6
    for pc in est.pairs:
        corr = pair_correlation(f1, xi, pc.p1, pc.p2, pc.m, target=0).value
        assert abs(pc.total / pc.m - corr) <= 1e-14, (t, pc.p1, pc.p2)


class TestVinogradovBound:
    def test_reference_values(self):
        assert vinogradov_bound(1 / math.e, 1) == pytest.approx(2 / math.sqrt(math.e),
                                                                rel=1e-12)
        assert vinogradov_bound(0.01, 10 ** 6) == pytest.approx(429193.20525786944,
                                                                rel=1e-12)

    def test_monotone_below_inverse_e(self):
        taus = [0.3, 0.2, 0.1, 0.03, 0.01, 0.001]
        vals = [vinogradov_bound(t, 1) for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(DomainError):
                vinogradov_bound(bad, 10)


class TestWeightedSum:
    def test_mertens(self, mobius_1k):
        F = BoundedSequence.constant(1, 100)
        assert weighted_sum(mobius_1k, F, 100) == 1 + 0j

    def test_squarefree_count(self, mobius_1k):
        mu = sieve_mobius(100)
        F = BoundedSequence(mu.values, mu.label)
        assert weighted_sum(mobius_1k, F, 100) == 61 + 0j

    def test_zero_sequence(self, mobius_1k):
        F = BoundedSequence.constant(0, 100)
        assert weighted_sum(mobius_1k, F, 100) == 0j

    def test_horizon_checks(self, mobius_1k):
        F = BoundedSequence.constant(1, 50)
        with pytest.raises(HorizonError):
            weighted_sum(mobius_1k, F, 100)


LEDGER_N = 10 ** 4


@pytest.fixture(scope="module")
def ledger():
    horizon = int(math.ceil(1.3 * LEDGER_N))
    mu = sieve_mobius(horizon)
    F = BoundedSequence.exponential("sqrt2", horizon)
    return criterion_ledger(mu, F, LEDGER_N, Fraction(3, 10), 5, 12, cutoff=20)


class TestLedger:
    N = LEDGER_N

    def test_exact_chain_holds(self, ledger):
        for line in ledger.chain:
            if line.exact:
                assert line.holds, line

    def test_ledger_path_equals_direct(self, ledger):
        horizon = int(math.ceil(1.3 * self.N))
        mu = sieve_mobius(horizon)
        F = BoundedSequence.exponential("sqrt2", horizon)
        direct = weighted_sum(mu, F, self.N - 1)
        via_ledger = sum(b.pair_sum for b in ledger.blocks) + ledger.leftover_sum
        assert abs(direct - via_ledger) <= 1e-9 * max(1.0, abs(direct))

    def test_factored_identity_per_block(self, ledger):
        for b in ledger.blocks:
            assert b.pair_sum == pytest.approx(b.factored_sum, abs=1e-9)

    def test_tau_effective_floor(self, ledger):
        assert ledger.tau_effective == pytest.approx(
            max(ledger.tau.tau_hat, 1 / math.log(20)), rel=1e-12)

    def test_constant_sequence_closed_form(self, mobius_1k):
        # with F = 1 the inner sums collapse: T_j = |P_j| * |Q_j|
        N = 500
        mu = sieve_mobius(int(math.ceil(1.3 * N)))
        F = BoundedSequence.constant(1, int(math.ceil(1.3 * N)))
        rep = criterion_ledger(mu, F, N, Fraction(3, 10), 4, 10, cutoff=10)
        for b in rep.blocks:
            assert b.inner_abs == pytest.approx(b.p_count * b.q_count, rel=1e-12)
        assert rep.tau.tau_hat == 1.0 and rep.verdict == "inconclusive"

    def test_single_block_degenerate(self):
        # j1 = j0 + 1 keeps exactly one block; ledger equals direct computation
        N = 2000
        horizon = int(math.ceil(1.3 * N))
        mu = sieve_mobius(horizon)
        F = BoundedSequence.exponential("sqrt2", horizon)
        rep = criterion_ledger(mu, F, N, Fraction(3, 10), 6, 7, cutoff=10)
        assert len(rep.blocks) == 1
        b = rep.blocks[0]
        direct = sum(mu.value(n) * F.eval(n)
                     for n in np.nonzero(rep_members(rep))[0])
        assert b.pair_sum == pytest.approx(direct, abs=1e-9)

    def test_horizon_requirement(self):
        mu = sieve_mobius(self.N)
        F = BoundedSequence.exponential("sqrt2", self.N)  # too short
        with pytest.raises(HorizonError):
            criterion_ledger(mu, F, self.N, Fraction(3, 10), 5, 12, cutoff=20)

    def test_nu_dtype_does_not_change_ledger(self):
        N = 2000
        horizon = int(math.ceil(1.3 * N))
        mu = sieve_mobius(horizon)
        mu_c = MultiplicativeTable(horizon, mu.values.astype(np.complex128), "mobius")
        F = BoundedSequence.exponential("sqrt2", horizon)
        args = (F, N, Fraction(3, 10), 5, 12)
        assert (criterion_ledger(mu, *args, cutoff=20).as_dict()
                == criterion_ledger(mu_c, *args, cutoff=20).as_dict())

    def test_pair_inputs_checked_before_the_decomposition(self, monkeypatch):
        def costly(*args):
            raise AssertionError("product sets built before the inputs were checked")
        monkeypatch.setattr(criterion, "product_sets", costly)
        N = 2000
        horizon = int(math.ceil(1.3 * N))
        mu = sieve_mobius(horizon)
        F = BoundedSequence.exponential("sqrt2", horizon)
        args = (mu, F, N, Fraction(3, 10), 5, 12)
        for cutoff, skip, error in ((math.inf, (), ValidationError),
                                    (math.nan, (), ValidationError),
                                    (2.5, (), EmptyPairSetError),
                                    (20, [(2,)], ValidationError),
                                    (20, [(2, 23)], ValidationError),
                                    (5, [(2, 3), (2, 5), (3, 5)], EmptyPairSetError),
                                    (3000, (), HorizonError)):
            with pytest.raises(error):
                criterion_ledger(*args, skip, cutoff=cutoff)
        with pytest.raises(HorizonError):
            criterion_ledger(*args, cutoff=20, M=horizon)
        # the 8 primes below 20 fit a budget of 50; the block [512, 1024)
        # of the window (2000, 1, 1, 10) holds 75 primes and does not
        monkeypatch.setattr(criterion, "PAIR_PRIME_BUDGET", 50)
        mu, F = sieve_mobius(2 * N), BoundedSequence.exponential("sqrt2", 2 * N)
        with pytest.raises(CapacityError, match="block of 75 primes"):
            criterion_ledger(mu, F, N, 1, 1, 10, cutoff=20)
        # D0 = 2 is a prime outside (D0, D1): 2 q is in P_1 Q_1 only for q
        # in S, so block 1's pair sum is no sum over all of Q_1
        with pytest.raises(ValidationError, match=r"D0 = \(1 \+ 1\)\^1 = 2 is a prime.*j0 = 1"):
            criterion_ledger(mu, F, N, 1, 1, 6, cutoff=20)
        with pytest.raises(AssertionError, match="product sets built"):
            criterion_ledger(*args, cutoff=20)

    def test_peak_stays_below_a_decomposition(self):
        # the ledger holds the product-set key (1 B/n) and Q_j, and while
        # it builds them the int32 lookup of m <= q_max(j0), one segment's
        # bool buffer and then one band of _GATHER int64 products; then at
        # most three tiles of ROW_TILE complex entries. A full
        # Decomposition alone takes 9.74 B/n here
        n = 10 ** 6
        horizon = math.ceil(1.3 * n)
        nu, F = sieve_mobius(n), BoundedSequence.exponential("inv_e", horizon)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            criterion_ledger(nu, F, n, Fraction(3, 10), 9, 30, cutoff=1000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        sets = _product_sets(n, "3/10", 9, 30)
        held = sets.key.nbytes + sum(q.nbytes for q in sets.q_sets.values())
        build = 4 * (sets.params.q_max(sets.params.j0) + 1) + 5 * decomp._SPAN + (1 << 20)
        tiles = 3 * criterion.ROW_TILE * 16
        assert peak <= held + build + tiles, peak
        assert peak < 9.74 * n, peak

    def test_verdict_fields(self, ledger):
        assert ledger.verdict in ("holds", "fails", "inconclusive")
        assert ledger.bound_rhs >= 0
        assert 0 < ledger.tau_effective <= 1
        assert abs(ledger.weighted) <= self.N

    def test_holds_needs_a_bound_below_the_trivial_one(self, ledger, monkeypatch):
        # tau_eff >= 1/ln 20 puts the bound above N, so above sum |mu F|
        trivial = ledger.trivial_bound
        assert ledger.bound_rhs > trivial > abs(ledger.weighted)
        assert ledger.verdict == "inconclusive"
        out = ledger.as_dict()
        assert out["trivial_bound"] == repr(trivial)
        assert out["bound_to_trivial"] == repr(ledger.bound_rhs / trivial)
        horizon = int(math.ceil(1.3 * self.N))
        args = (sieve_mobius(horizon), BoundedSequence.exponential("sqrt2", horizon),
                self.N, Fraction(3, 10), 5, 12)
        for bound, verdict in ((np.nextafter(trivial, 0), "holds"),
                               (trivial, "inconclusive")):
            monkeypatch.setattr(criterion, "vinogradov_bound", lambda tau, n: bound)
            rep = criterion_ledger(*args, cutoff=20)
            assert rep.trivial_bound == trivial and rep.bound_rhs == bound
            assert rep.verdict == verdict, bound


@pytest.mark.parametrize("n, theta, cutoff", [
    (10 ** 5, "sqrt2", 50.0),          # demos/03_bilinear_criterion.py
    (3 * 10 ** 6, "inv_e", 1000.0)])   # the bench `bilinear` criterion run
def test_default_runs_are_inconclusive(n, theta, cutoff):
    # tau_eff = 1/ln(cutoff) gives a bound above N, while sum |mu F| is
    # the squarefree count below N, about 0.61 N
    horizon = int(math.ceil(1.3 * n))
    F = BoundedSequence.exponential(theta, horizon)
    rep = criterion_ledger(sieve_mobius(horizon), F, n, Fraction(3, 10), 9, 30,
                           cutoff=cutoff)
    assert rep.tau_effective == 1 / math.log(cutoff)
    assert rep.bound_rhs > n > rep.trivial_bound
    assert rep.exact_chain_holds and rep.verdict == "inconclusive"


@pytest.mark.parametrize("n", [5000, 20000])
def test_near_total_correlation_is_inconclusive(n):
    # 226 pi lies within 6e-5 of an integer, so the pair (13, 239) correlates
    # almost totally; 2 sqrt(tau ln(1/tau)) N, which falls again past 1/e,
    # would read `fails` at 5000 and `holds` at 20000
    horizon = int(math.ceil(1.3 * n))
    F = BoundedSequence.exponential("pi", horizon)
    rep = criterion_ledger(sieve_mobius(horizon), F, n, Fraction(3, 10), 5, 12,
                           cutoff=240)
    assert rep.tau.worst_pair == (13, 239) and rep.tau_effective > 0.999
    assert rep.bound_rhs == rep.trivial_bound and rep.margin is None
    assert rep.exact_chain_holds and rep.verdict == "inconclusive"


def _primes_for(params):
    return sieve_primes(int(math.ceil(float(params.d1))) + 1)


def _product_sets(n, alpha, j0, j1):
    """What the ledger reads of the window: the blocks, Q_j and the key."""
    params = DecompositionParams(n, Fraction(alpha), j0, j1)
    return product_sets(params, _primes_for(params))


def _decomposition(params):
    """The full decomposition of the window, built apart from the ledger's view."""
    return build_decomposition(params, _primes_for(params))


class TestBlockMembers:
    @pytest.mark.parametrize("theta", ["sqrt2", "inv_e"])
    def test_block_ledger_matches_index_gather(self, theta):
        # the same ledger lines from a 2-D index gather of F(p y): the
        # matrices are equal, so every field is equal bit for bit
        dec = _product_sets(5000, "3/10", 5, 12)
        mu = sieve_mobius(6500)
        F = BoundedSequence.exponential(theta, 6500)
        pair_sums = criterion._window_pass(dec, mu.values, F)[3]
        for j, pair_sum in zip(dec.params.block_range, pair_sums):
            got = criterion._block_ledger(dec, j, pair_sum, mu.values, F)
            ps = dec.block(j).primes.astype(np.int64)
            qs = dec.q_set(j)
            ys = np.arange(1, got.y_cap + 1)
            nu_p = mu.values[ps]
            fxq = F.values[ps[:, None] * qs[None, :]]
            fxy = F.values[ps[:, None] * ys[None, :]]
            inner_q, inner_all = nu_p @ fxq, nu_p @ fxy
            gram = fxy @ fxy.conj().T
            assert got.factored_sum == complex(np.sum(mu.values[qs] * inner_q))
            assert got.inner_abs == float(np.sum(np.abs(inner_q)))
            assert got.cauchy == (math.sqrt(len(qs))
                                  * math.sqrt(float(np.sum(np.abs(inner_q) ** 2))))
            assert got.extended == (math.sqrt(len(qs))
                                    * math.sqrt(float(np.sum(np.abs(inner_all) ** 2))))
            assert got.diagonal == float(np.sum(gram.diagonal().real))
            assert got.off_diagonal == float(np.sum(_off_diagonal_moduli(gram)))

    @pytest.mark.parametrize("budget, band", [(50, criterion.GRAM_BAND),
                                              (1, criterion.GRAM_BAND), (50, 1)],
                             ids=["50", "1", "50-band1"])
    def test_many_tiles_match_index_gather(self, budget, band, monkeypatch):
        # tiles of at most 50 entries (or one y per tile): Q_j spans many
        # tiles, so each field is a sum of tile partials and differs from
        # the one-shot gather only by rounding, within the derived bound;
        # with band 1 each tile's Gram product is added one row at a time
        monkeypatch.setattr(criterion, "ROW_TILE", budget)
        monkeypatch.setattr(criterion, "TILE_MIN_WIDTH", 1)
        monkeypatch.setattr(criterion, "GRAM_BAND", band)
        dec = _product_sets(5000, "3/10", 5, 12)
        mu = sieve_mobius(6500)
        F = BoundedSequence.exponential("inv_e", 6500)
        for j in dec.params.block_range:
            got = criterion._block_ledger(dec, j, 0j, mu.values, F)
            ps = dec.block(j).primes.astype(np.int64)
            qs = dec.q_set(j)
            if ps.size == 0 or qs.size == 0:
                continue
            assert ps.size * got.y_cap > 3 * budget
            nu_p, nu_q = mu.values[ps], mu.values[qs]
            fxy = F.values[ps[:, None] * np.arange(1, got.y_cap + 1)]
            inner = nu_p @ fxy
            gram = fxy @ fxy.conj().T
            inner_q = inner[qs - 1]
            sq_q = float(np.sum(np.abs(inner_q) ** 2))
            sq_all = float(np.sum(np.abs(inner) ** 2))
            # a(y) = sum_x |nu(x) F(x y)| bounds |inner(y)| and its error
            a = np.abs(nu_p) @ np.abs(fxy)
            a_q, mag = a[qs - 1], np.abs(fxy)
            d = ps.size ** 2 + got.y_cap + 8
            assert abs(got.factored_sum - complex(np.sum(nu_q * inner_q))) \
                <= _ledger_gap_bound(d, float(np.sum(np.abs(nu_q) * a_q)))
            assert abs(got.inner_abs - float(np.sum(np.abs(inner_q)))) \
                <= _ledger_gap_bound(d, float(np.sum(a_q)))
            for field, sq, a_part in ((got.cauchy, sq_q, a_q), (got.extended, sq_all, a)):
                want = math.sqrt(len(qs)) * math.sqrt(sq)
                sq_gap = _ledger_gap_bound(d, 2 * float(np.sum(a_part ** 2)))
                # |sqrt(s) - sqrt(t)| <= |s - t| / sqrt(t), then three roundings
                assert abs(field - want) <= (math.sqrt(len(qs)) * sq_gap / math.sqrt(sq)
                                             + 6 * 2.0 ** -53 * max(field, want))
            assert abs(got.diagonal - float(np.sum(gram.diagonal().real))) \
                <= _ledger_gap_bound(d, float(np.sum(mag ** 2)))
            off = float(np.sum(_off_diagonal_moduli(gram)))
            assert abs(got.off_diagonal - off) \
                <= _ledger_gap_bound(d, 2 * float(np.sum((mag @ mag.T))))

    def test_off_diagonal_is_a_direct_sum(self):
        # O_j sums k^2 - k nonnegative moduli of block j's Gram, so it is
        # within gamma_(k^2) O_j of their fsum (the sum's error plus fsum's
        # rounding). At (1e5, sqrt3) block 13 has 2 primes and D_j / O_j
        # is 5.8e5: all k^2 moduli less the diagonal's lose up to 19 bits
        n = 100_000
        dec = _product_sets(n, "3/10", 9, 30)
        mu = sieve_mobius(n)
        F = BoundedSequence.exponential("sqrt3", math.ceil(1.3 * n))
        u = 2.0 ** -53
        ratios = []
        for j in dec.params.block_range:
            got = criterion._block_ledger(dec, j, 0j, mu.values, F)
            if got.p_count == 0 or got.q_count == 0:
                continue
            ps = dec.block(j).primes.astype(np.int64)
            k = ps.size
            gram = np.zeros((k, k), dtype=np.complex128)
            for _ in criterion._row_tiles(F.values, ps, np.full(k, got.y_cap), gram):
                pass
            want = math.fsum(_off_diagonal_moduli(gram).ravel().tolist())
            if k == 1:
                assert got.off_diagonal == want == 0.0
                continue
            assert abs(got.off_diagonal - want) <= k * k * u / (1 - k * k * u) * want, j
            ratios.append(got.diagonal / want)
        assert max(ratios) >= 1e5, ratios

    def test_memory_stays_flat_in_n(self):
        # a block ledger holds a few tiles of ROW_TILE entries, whatever
        # N is; gathering all of F(p y), y <= N / (1+alpha)^j, peaks at
        # 10.5 MB for j = 9 at N = 1e6 and grows in proportion to N
        tile_bytes = criterion.ROW_TILE * 16
        peaks = {}
        for n in (1_000_000, 2_000_000):
            dec = _product_sets(n, "3/10", 9, 30)
            nu = sieve_mobius(n).values
            F = BoundedSequence.exponential("inv_e", math.ceil(1.3 * n))
            peaks[n] = 0
            for j in dec.params.block_range:
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    criterion._block_ledger(dec, j, 0j, nu, F)
                    peaks[n] = max(peaks[n], tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()
        assert peaks[2_000_000] < 6 * tile_bytes, peaks
        assert peaks[2_000_000] <= peaks[1_000_000] + tile_bytes, peaks


def _off_diagonal_moduli(gram: np.ndarray) -> np.ndarray:
    """|gram| with its diagonal set to 0."""
    moduli = np.abs(gram)
    np.fill_diagonal(moduli, 0.0)
    return moduli


def _ledger_gap_bound(d: int, magnitude: float) -> float:
    """Bound on the gap between two float64 evaluations of one block-ledger
    quantity that differ only in how their sums are split and ordered.

    Each is a sum of complex products, and an elementary term meets at
    most ``d`` roundings on its way to the result: its products, the
    additions of any summation tree and the adding of tile partials. With
    u = 2^-53 each real part is then within gamma_d times the sum of the
    moduli of its real terms of the exact value, and the complex value
    within sqrt(2) gamma_d ``magnitude``, the sum of the moduli of the
    elementary products, gamma_d = d u / (1 - d u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., secs. 3.1, 3.6 and 4.2).
    Two evaluations differ by at most twice that.
    """
    u = 2.0 ** -53
    return 2 * math.sqrt(2) * d * u / (1 - d * u) * magnitude


def _window_reference(dec, nu_values, F):
    """The window pass written out set by set from a full decomposition
    ``dec``, P_j Q_j = ``in_pq`` on block j and the leftover ``~in_pq``: per
    block [lo, hi) of WINDOW_BLOCK, ``np.sum`` of the
    products for the total, ``np.sum`` of their moduli for the trivial
    bound and a left-to-right float loop over each set's members in the
    block; the block shares are added in index order."""
    n, step = dec.params.n, criterion.WINDOW_BLOCK
    left = np.flatnonzero(~dec.in_pq)
    sets = [left[left >= 1]] + [np.flatnonzero(dec.in_pq & (dec.block_of == j))
                                for j in dec.params.block_range]
    total, trivial, sums = 0j, 0.0, [0j] * len(sets)
    for start in range(0, n, step):
        lo, hi = max(start, 1), min(start + step, n)
        prod = nu_values[lo:hi] * F.values[lo:hi]
        total += complex(np.sum(prod))
        trivial += float(np.sum(np.abs(prod)))
        for k, members in enumerate(sets):
            re = im = 0.0
            for v in prod[members[(members >= lo) & (members < hi)] - lo].tolist():
                re += v.real
                im += v.imag
            sums[k] += complex(re, im)
    return total, sums[0], sums[1:], trivial, sets


def _fsum_gap_bound(terms: np.ndarray, n: int) -> float:
    """Bound on |window-pass sum - math.fsum| for the real or imaginary
    parts ``terms`` of one of its sums over [1, n).

    On its way to the result a term passes through at most
    WINDOW_BLOCK - 1 additions inside its block (any order ``np.sum`` or
    ``np.bincount`` takes has a tree of that height or less) and at most
    K = ceil(n / WINDOW_BLOCK) additions of block shares. With u = 2^-53
    and d = WINDOW_BLOCK - 1 + K, a summation tree of height d has error
    at most gamma_d * sum |x|, gamma_d = d u / (1 - d u) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 4.2), and fsum is
    correctly rounded, |fsum - s| <= u |s|. So the gap is at most
    (gamma_d + u) * sum |x|.
    """
    u = 2.0 ** -53
    d = criterion.WINDOW_BLOCK - 1 + -(-n // criterion.WINDOW_BLOCK)
    return (d * u / (1 - d * u) + u) * math.fsum(np.abs(terms))


def _window_inputs(n, alpha, j0, j1, weighted=False):
    """The product sets, Moebius and exp(2 pi i n inv_e) up to n; with
    ``weighted`` F is scaled by (1 + n mod 251) / 251, so |nu F| spreads
    over (0, 1] and a block's sum of moduli depends on its order."""
    F = BoundedSequence.exponential("inv_e", n)
    if weighted:
        weight = (1 + np.arange(n + 1) % 251) / 251
        F = BoundedSequence(F.values * weight, f"{F.label}*weight")
    return _product_sets(n, alpha, j0, j1), sieve_mobius(n).values, F


class TestWindowPass:
    @pytest.mark.parametrize("args, block", [
        ((1000, 1, 1, 4), None),            # N below one block
        ((5000, "3/10", 5, 12), None),      # N not a multiple of the block
        ((20_000, "1/10", 10, 60), None),   # blocks without members
        ((100, 1, 3, 3), None),             # j0 == j1: no blocks at all
        ((5000, "3/10", 5, 12), 61),        # many blocks, a short last one
        ((70_000, "3/10", 9, 30), None),    # several blocks, a short last one
        ((4096 * 35, "3/10", 9, 30), None),
        ((4096 * 19 + 1, "1/10", 10, 60), None),
        ((3 * criterion.WINDOW_BLOCK, "3/10", 9, 30), None),      # whole blocks only
        ((3 * criterion.WINDOW_BLOCK + 1, "3/10", 9, 30), None),   # a last block of one
        # |F| spread over (0, 1]: the trivial bound is no exact integer,
        # and moving any of the first, middle or last |nu F| of the block
        # after the rest of its sum changes its last bit at 13439
        ((13_439, "3/10", 5, 12, True), None),
        # 221 short blocks of spread |nu F|: adding the block shares of
        # the trivial bound by math.fsum, not left to right, moves it
        ((13_439, "3/10", 5, 12, True), 61)])
    def test_sums_equal_fixed_block_reference(self, args, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(criterion, "WINDOW_BLOCK", block)
        view, nu, F = _window_inputs(*args)
        dec = _decomposition(view.params)
        n = dec.params.n
        total, leftover, leftover_count, pair_sums, trivial = criterion._window_pass(
            view, nu, F)
        want_total, want_leftover, want_pairs, want_trivial, sets = _window_reference(
            dec, nu, F)
        # bit for bit: repr tells every float apart, -0.0 from 0.0 included
        assert repr(total) == repr(want_total)
        assert repr(trivial) == repr(want_trivial)
        assert repr(leftover) == repr(want_leftover)
        assert len(pair_sums) == len(dec.params.block_range)
        assert [repr(s) for s in pair_sums] == [repr(s) for s in want_pairs]
        assert leftover_count == sets[0].size == n - 1 - dec.count_pq
        prod = nu[:n] * F.values[:n]
        for got, members in zip([total, leftover, *pair_sums],
                                [np.arange(1, n), *sets]):
            for part, terms in ((got.real, prod.real[members]),
                                (got.imag, prod.imag[members])):
                assert abs(part - math.fsum(terms)) <= _fsum_gap_bound(terms, n)
        # the trivial bound sums the moduli of the same products
        moduli = np.abs(prod[1:])
        assert abs(trivial - math.fsum(moduli)) <= _fsum_gap_bound(moduli, n)

    def test_blocks_without_members(self):
        view, nu, F = _window_inputs(20_000, "1/10", 10, 60)
        pair_sums = criterion._window_pass(view, nu, F)[3]
        dec = _decomposition(view.params)
        counts = [int(np.count_nonzero(dec.in_pq & (dec.block_of == j)))
                  for j in dec.params.block_range]
        assert 0 in counts and max(counts) > 0
        assert all(s == 0j for s, c in zip(pair_sums, counts) if c == 0)

    def test_memory_stays_flat_in_n(self):
        # the pass holds one block's temporaries, whatever N is; summing
        # the whole window at once peaks near 24 MB at N = 1e6
        peaks = {}
        for n in (200_000, 1_000_000):
            view, nu, F = _window_inputs(n, "3/10", 9, 30)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                criterion._window_pass(view, nu, F)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[1_000_000] < 2 * 2 ** 20, peaks
        assert peaks[1_000_000] <= peaks[200_000] + 64 * 2 ** 10, peaks


def rep_members(rep):
    """Mask of [0, N) marked as product members, rebuilt from the report."""
    return _decomposition(rep.params).in_pq
