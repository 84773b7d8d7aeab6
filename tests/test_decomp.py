import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horomu import decomp
from horomu.arith import sieve_primes
from horomu.decomp import (DECOMP_BUDGET, TAG_MULTIPLE, TAG_NOT_IN_S, TAG_UNIQUE,
                           Classification, DecompositionParams, build_decomposition,
                           classify, coverage_report, default_schedule, prime_blocks,
                           product_sets, q_membership, window_primes)
from horomu.errors import (CapacityError, DomainError, RangeCoverageError,
                           ValidationError)

from conftest import TEST_SEED, factorize, unsegmented_decomposition


@pytest.fixture(scope="module")
def params_pow2():
    # alpha=1, j0=1, j1=4: D0=2, D1=16, blocks [2,4), [4,8), [8,16)
    return DecompositionParams(1000, Fraction(1), 1, 4)


@pytest.fixture(scope="module")
def dec_pow2(params_pow2, primes_10k):
    return build_decomposition(params_pow2, primes_10k)


class TestSchedule:
    def test_alpha_tenth(self):
        assert default_schedule(0.1) == (123, 123 ** 2)

    def test_alpha_quarter(self):
        assert default_schedule(0.25) == (11, 121)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            default_schedule(1 / math.e)
        with pytest.raises(DomainError):
            default_schedule(0.5)


class TestParams:
    def test_derived_bounds(self, params_pow2):
        assert params_pow2.d0 == 2 and params_pow2.d1 == 16
        assert list(params_pow2.block_range) == [1, 2, 3]

    def test_horizon_and_window_primes(self):
        # ceil(N (1 + alpha)), exact where N (1 + alpha) is an integer
        assert DecompositionParams(3 * 10 ** 6, Fraction(3, 10), 9, 30).horizon == 3_900_000
        params = DecompositionParams(1000, Fraction(1, 3), 2, 9)  # D1 = 4^9/3^9 = 13.3
        assert params.horizon == 1334
        assert window_primes(params).primes.tolist() == [2, 3, 5, 7, 11, 13]

    def test_powers_computed_once(self):
        a = DecompositionParams(1000, Fraction(1, 2), 2, 9)
        b = DecompositionParams(1000, Fraction(1, 2), 2, 9)
        assert a.base is a.base and a.d0 is a.d0 and a.d1 is a.d1
        assert a == b and hash(a) == hash(b)
        assert a != DecompositionParams(1000, Fraction(1, 2), 2, 8)

    def test_d1_must_stay_below_n(self):
        with pytest.raises(ValidationError):
            DecompositionParams(10, Fraction(1), 1, 4)
        # (1+alpha)^j1 = N exactly is refused too
        with pytest.raises(ValidationError):
            DecompositionParams(1024, Fraction(1), 1, 10)
        # the default schedule's j1 = 95394289: refused from logarithms,
        # without forming the exact power
        with pytest.raises(ValidationError, match=r"\^95394289 >= N"):
            DecompositionParams(100_000, Fraction(1, 100), *default_schedule(Fraction(1, 100)))

    @pytest.mark.parametrize("args", [(1000, 1, 1, 4), (1024, 1, 1, 4),
                                      (5000, Fraction(3, 10), 5, 12),
                                      (60000, Fraction(1, 7), 5, 40),
                                      (1024, 1, 1, 9),
                                      (100_000, Fraction(1, 1000), 1000, 1100)])
    def test_caps_are_largest_cofactors(self, args):
        # the integer loop against the exact definitions: bounds[j - j0] =
        # ceil((1+alpha)^j), y_caps = floor(N/(1+alpha)^j) and q_max(j) the
        # largest integer strictly below N/(1+alpha)^(j+1)
        params = DecompositionParams(args[0], Fraction(args[1]), *args[2:])
        base, n = params.base, params.n
        assert len(params.caps) == len(params.y_caps) == len(params.block_range)
        assert params.bounds.tolist() == [math.ceil(base ** j)
                                          for j in range(params.j0, params.j1 + 1)]
        for j in params.block_range:
            q_limit = Fraction(n) / base ** (j + 1)
            assert params.q_max(j) < q_limit <= params.q_max(j) + 1, j
            assert params.y_caps[j - params.j0] == math.floor(Fraction(n) / base ** j), j

    def test_block_indices_fit_int16(self, primes_10k):
        # block_of is int16: j1 = 32767 builds, one more is refused
        params = DecompositionParams(100, Fraction(1, 100_000), 32766, 32767)
        assert params.bounds.tolist() == [2, 2]
        dec = build_decomposition(params, primes_10k)
        assert dec.count_not_in_s == 99 and dec.blocks[0].j == 32766
        with pytest.raises(CapacityError, match="j1 = 32768 exceeds the int16"):
            DecompositionParams(100, Fraction(1, 100_000), 32766, 32768)
        # past the guard, no power is formed: this window took > 60 s
        started = time.perf_counter()
        with pytest.raises(CapacityError):
            DecompositionParams(100_000, Fraction(1, 10_000), 100_000, 110_000)
        assert time.perf_counter() - started < 5

    def test_bounds_fit_int64(self):
        with pytest.raises(CapacityError):
            DecompositionParams(10 ** 30, Fraction(1), 1, 70)

    def test_alpha_domain(self):
        with pytest.raises(ValidationError):
            DecompositionParams(100, Fraction(3, 2), 1, 2)

    def test_q_max_excludes_exact_boundary(self, params_pow2):
        # N/(1+alpha)^(j+1) = 1000/16 = 62.5 -> q_max 62; exact division case:
        p = DecompositionParams(1024, Fraction(1), 1, 4)
        assert p.q_max(3) == 63  # 1024/16 = 64 exactly, membership is strict


class TestBlockBounds:
    @pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2),
                                       Fraction(3, 10), Fraction(1, 7)])
    def test_flat_blocks_match_prime_blocks(self, alpha, primes_10k):
        # the blocks from the integer bounds are the exact rational intervals
        # [(1+alpha)^j, (1+alpha)^(j+1)); alpha=1, j0=1 has the integer
        # D0 = 2, a block prime that is not strictly interior
        n, base = 10_000, 1 + alpha
        top = max(j for j in range(1, 100) if base ** j < n)
        cases = {(1, 1), (1, 2), (1, top), (2, 5), (top // 2, top), (top, top)}
        for j0, j1 in sorted(cases):
            params = DecompositionParams(n, alpha, j0, j1)
            blocks = prime_blocks(params, primes_10k)
            assert [b.j for b in blocks] == list(params.block_range)
            small = [p for p in primes_10k.primes.tolist() if p < params.d1]
            for b in blocks:
                lo, hi = base ** b.j, base ** (b.j + 1)
                assert b.primes.tolist() == [p for p in small if lo <= p < hi], b.j
            want_p = [int(p) for b in blocks for p in b.primes]
            want_j = [b.j for b in blocks for _ in b.primes]
            want_in = [params.d0 < p < params.d1 for p in want_p]
            # the rule classify applies: only an integer D0 is not interior
            assert [p != params.d0 for p in want_p] == want_in, (j0, j1)
            for p, j, inside in zip(want_p, want_j, want_in):
                want = Classification(TAG_UNIQUE, j, p) if inside else Classification(TAG_NOT_IN_S)
                assert classify(p, params, primes_10k) == want, (j0, j1, p)
            assert params.bounds.tolist() == [math.ceil((1 + alpha) ** j)
                                              for j in range(j0, j1 + 1)]

    def test_table_must_cover_d1(self, params_pow2):
        with pytest.raises(RangeCoverageError):
            classify(5, params_pow2, sieve_primes(10))


class TestClassify:
    def test_power_of_two_outside_open_interval(self, params_pow2, primes_10k):
        assert classify(8, params_pow2, primes_10k).tag == TAG_NOT_IN_S

    def test_square_in_least_block(self, params_pow2, primes_10k):
        got = classify(9, params_pow2, primes_10k)
        assert got.tag == TAG_MULTIPLE and got.j == 1

    def test_one(self, params_pow2, primes_10k):
        assert classify(1, params_pow2, primes_10k).tag == TAG_NOT_IN_S

    def test_unique_with_cofactor(self, params_pow2, primes_10k):
        got = classify(11 * 17, params_pow2, primes_10k)
        assert got.tag == TAG_UNIQUE and got.j == 3 and got.prime == 11


class TestQMembership:
    def test_examples(self, params_pow2, primes_10k):
        assert q_membership(17, 3, params_pow2, primes_10k) is True
        assert q_membership(2, 3, params_pow2, primes_10k) is False
        assert q_membership(1, 3, params_pow2, primes_10k) is True

    def test_bound_is_strict(self, primes_10k):
        p = DecompositionParams(1024, Fraction(1), 1, 4)
        assert q_membership(64, 3, p, primes_10k) is False  # 64 = 1024/16 exactly
        assert q_membership(61, 3, p, primes_10k) is True  # prime above the blocks

    @pytest.mark.parametrize("args", [(1000, 1, 1, 4), (1024, 1, 1, 4),
                                      (5000, Fraction(3, 10), 5, 12),
                                      (60000, Fraction(1, 7), 5, 40)])
    def test_builder_q_sets_complete(self, args, primes_10k):
        # the builder's Q_j holds every m the per-m oracle admits, not just a
        # subset; 1024 = 16 * 64 puts the cap of block 3 exactly on the boundary
        params = DecompositionParams(args[0], Fraction(args[1]), *args[2:])
        dec = build_decomposition(params, primes_10k)
        for j in params.block_range:
            want = [m for m in range(1, params.q_max(j) + 1)
                    if q_membership(m, j, params, primes_10k)]
            assert dec.q_set(j).tolist() == want, j


class TestBuild:
    def test_unique_product_factorization(self, dec_pow2):
        # 187 = 11 * 17 is a block-3 product with a unique factor pair
        assert dec_pow2.classification(187).tag == TAG_UNIQUE
        assert bool(dec_pow2.in_pq[187])
        p = int(dec_pow2.unique_prime[187])
        assert (p, 187 // p) == (11, 17)
        pairs = [(x, 187 // x) for x in range(2, 187)
                 if 187 % x == 0
                 and x in set(int(v) for v in dec_pow2.block(3).primes)
                 and 187 // x in set(int(v) for v in dec_pow2.q_set(3))]
        assert pairs == [(11, 17)]

    def test_matches_per_n_classifier(self, dec_pow2, params_pow2, primes_10k):
        for n in range(1, params_pow2.n):
            assert classify(n, params_pow2, primes_10k) == dec_pow2.classification(n), n

    def test_matches_classifier_noninteger_alpha(self, primes_10k):
        params = DecompositionParams(5000, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        for n in range(1, 5000):
            got = classify(n, params, primes_10k)
            assert got == dec.classification(n), n
            # in_pq: unique with cofactor n/p <= q_max(j)
            expect_pq = got.tag == TAG_UNIQUE and n // got.prime <= params.q_max(got.j)
            assert bool(dec.in_pq[n]) == expect_pq, n

    def test_array_dtypes(self, dec_pow2):
        assert dec_pow2.tags.dtype == np.int8
        assert dec_pow2.block_of.dtype == np.int16
        assert dec_pow2.unique_prime.dtype == np.int32
        assert dec_pow2.in_pq.dtype == np.bool_
        assert int(dec_pow2.unique_prime[0]) == 0 and int(dec_pow2.block_of[0]) == -1
        nonunique = dec_pow2.tags != TAG_UNIQUE
        assert not dec_pow2.unique_prime[nonunique].any()
        assert not dec_pow2.in_pq[nonunique].any()

    def test_counting_identity(self, dec_pow2, primes_10k):
        per_block = coverage_report(dec_pow2, primes_10k).counts["per_block"]
        total = dec_pow2.count_not_in_s + dec_pow2.count_multiple
        total += sum(row["s_j"] for row in per_block.values())
        assert total == dec_pow2.window_size

    def test_tags_partition(self, dec_pow2):
        tags = dec_pow2.tags[1:]
        assert np.all((tags == TAG_NOT_IN_S) | (tags == TAG_UNIQUE)
                      | (tags == TAG_MULTIPLE))

    def test_products_classify_into_their_block(self, primes_10k):
        # inclusion: every p*q with p in P_j, q in Q_j lands in S_j as marked
        params = DecompositionParams(5000, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        for j in params.block_range:
            qs = set(int(v) for v in dec.q_set(j))
            for p in dec.block(j).primes:
                for q in qs:
                    n = int(p) * q
                    got = dec.classification(n)
                    assert got.tag == TAG_UNIQUE and got.j == j, (n, got)
                    assert bool(dec.in_pq[n])

    def test_injectivity_round_trip(self, primes_10k):
        params = DecompositionParams(5000, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        seen = set()
        for j in params.block_range:
            block_primes = set(int(v) for v in dec.block(j).primes)
            qs = set(int(v) for v in dec.q_set(j))
            for n in np.flatnonzero(dec.in_pq & (dec.block_of == j)).tolist():
                assert n not in seen
                seen.add(n)
                divisors = [p for p in block_primes if n % p == 0]
                assert len(divisors) == 1
                p = divisors[0]
                assert p == int(dec.unique_prime[n])
                assert n // p in qs
        assert len(seen) == dec.count_pq

    def test_complement_cofactor_window(self, primes_10k):
        # members of S_j missing from P_j Q_j have cofactors in
        # [N/(1+alpha)^(j+1), N/(1+alpha)^j)
        params = DecompositionParams(5000, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        base = params.base
        for j in params.block_range:
            sel = (dec.tags == TAG_UNIQUE) & (dec.block_of == j) & ~dec.in_pq
            for n in np.nonzero(sel)[0]:
                q = int(n) // int(dec.unique_prime[n])
                assert (Fraction(params.n) / base ** (j + 1) <= q
                        < Fraction(params.n) / base ** j)

    def test_degenerate_equal_indices(self, primes_10k):
        params = DecompositionParams(100, Fraction(1), 3, 3)
        dec = build_decomposition(params, primes_10k)
        assert dec.count_s == 0 and dec.count_pq == 0
        assert dec.leftover_count == dec.window_size
        # coverage identity: |S_j| = |P_j Q_j| + |S_j \ P_j Q_j| trivially
        assert dec.count_s == dec.count_pq + 0

    def test_multiple_elements_discarded_from_products(self, dec_pow2):
        multi = np.nonzero(dec_pow2.tags == TAG_MULTIPLE)[0]
        assert multi.size > 0
        assert not dec_pow2.in_pq[multi].any()


@st.composite
def small_windows(draw):
    """Windows with N <= 4000 and any 1 <= j0 <= j1 that keep D1 < N."""
    alpha = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 10),
                                  Fraction(1, 7)]))
    n = draw(st.integers(3, 4000))
    top = 1
    while (1 + alpha) ** (top + 1) < n:
        top += 1
    j0 = draw(st.integers(1, top))
    return DecompositionParams(n, alpha, j0, draw(st.integers(j0, top)))


class TestBuildProperties:
    @settings(max_examples=60)
    @given(params=small_windows())
    # D0 = 2 is an integer prime: a block prime outside (D0, D1)
    @example(params=DecompositionParams(4000, Fraction(1), 1, 11))
    def test_every_n_matches_the_oracle(self, primes_10k, params):
        dec = build_decomposition(params, primes_10k)
        for n in range(1, params.n):
            want = classify(n, params, primes_10k)
            assert dec.classification(n) == want, n
            in_pq = want.tag == TAG_UNIQUE and n // want.prime <= params.q_max(want.j)
            assert bool(dec.in_pq[n]) == in_pq, n

    def test_float_cofactor_is_exact_near_the_budget(self):
        # the builder takes q = n/p in float64: for every divisor d of every
        # n in the last 2^16 integers below the budget, the quotient is exact
        lo = DECOMP_BUDGET - (1 << 16)
        ns = np.arange(lo, DECOMP_BUDGET)
        for k in range(1, 6000):
            multiples = ns[-lo % k::k]
            for d in (np.full(multiples.size, k), multiples // k):
                ratio = multiples.astype(np.float64)
                ratio /= d.astype(np.int32)
                assert np.array_equal(ratio.astype(np.intp), multiples // d), k

    def test_peak_stays_within_the_outputs(self):
        # beyond its outputs the builder holds only one chunk's temporaries,
        # the block tables and the tally, ~0.74 MB at any N, all but the
        # tally freed before Q_j is read off
        params = DecompositionParams(10 ** 6, Fraction(3, 10), 9, 30)
        primes = sieve_primes(3000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dec = build_decomposition(params, primes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (dec.tags, dec.block_of, dec.unique_prime,
                                         dec.in_pq, *dec.q_sets.values()))
        assert peak <= outputs + (1 << 20), (peak, outputs)


def assert_equals_unsegmented(params, primes):
    """The builder's arrays, dtypes, tally and Q_j equal those of the
    unsegmented reference, and the ledger's key and Q_j equal those read
    off them; at an integer prime D0 the ledger's view is refused, and
    ``sets`` is None."""
    dec = build_decomposition(params, primes)
    tags, block_of, unique_prime, in_pq, q_sets = unsegmented_decomposition(params, primes)
    for got, want in ((dec.tags, tags), (dec.block_of, block_of),
                      (dec.unique_prime, unique_prime), (dec.in_pq, in_pq)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    cells = 4 * (block_of.astype(np.int64) + 1) + tags + 2 * in_pq
    tally = np.bincount(cells, minlength=4 * (params.j1 + 1)).reshape(-1, 4)
    assert dec.tally.dtype == np.int64 and np.array_equal(dec.tally, tally)
    assert list(dec.q_sets) == list(q_sets) == list(params.block_range)
    for j, want in q_sets.items():
        assert dec.q_set(j).dtype == want.dtype and np.array_equal(dec.q_set(j), want), j
    if params.d0.denominator == 1 and primes.contains(params.d0.numerator):
        with pytest.raises(ValidationError, match=f"D0 = .* = {params.d0} is a prime outside"):
            product_sets(params, primes)
        return dec, None
    sets = product_sets(params, primes)
    key = np.where(in_pq, block_of.astype(np.int64) - (params.j0 - 1), 0)
    assert np.array_equal(sets.key, key)
    assert sets.key.dtype == (np.int8 if len(params.block_range) <= 126 else np.int16)
    assert [b.j for b in sets.blocks] == list(params.block_range)
    for j, want in q_sets.items():
        assert np.array_equal(sets.q_set(j), want), j
    return dec, sets


class TestSegmentedCore:
    """``build_decomposition`` and ``product_sets`` sieve one segment of
    ``decomp._SPAN`` indices at a time; their outputs equal those of one
    sieve over the whole window."""

    @pytest.mark.parametrize("args", [
        (4000, 1, 1, 11),                # D0 = 2 an integer prime, refused by product_sets
        (50_000, Fraction(1, 100), 1, 300),  # 299 blocks: the key is int16
        (2 * decomp._SPAN, Fraction(3, 10), 9, 30),  # N a multiple of the segment
        (3 * 10 ** 6, Fraction(3, 10), 9, 30),  # N no multiple of the segment
        # block primes above isqrt(DECOMP_BUDGET), with D0 = 2 in the first
        (10 ** 6, 1, 1, 19),
        # the product sets' sieve of m <= q_max(j0) = 493,827 takes two segments
        (2_500_000, Fraction(1, 2), 3, 36),
    ])
    def test_equals_unsegmented_builder(self, args):
        params = DecompositionParams(*args)
        primes = window_primes(params)
        dec, sets = assert_equals_unsegmented(params, primes)
        if params.bounds[-1] > decomp._LARGE:
            assert dec.unique_prime.max() >= decomp._LARGE
        if sets is not None:
            assert np.count_nonzero(sets.key) == dec.count_pq

    @settings(max_examples=40)
    @given(params=small_windows(), span=st.sampled_from([64, 96, 100, 4096]),
           gather=st.sampled_from([16, 32, 1 << 14]))
    @example(params=DecompositionParams(4000, Fraction(1), 1, 11), span=100, gather=32)
    # the builder reads cofactors up to (N - 1) // 2 = 103, in the chunk
    # [100, 132) of the second segment, which crosses a multiple of 32
    @example(params=DecompositionParams(207, Fraction(1), 1, 7), span=100, gather=32)
    def test_small_segments_and_large_primes(self, primes_10k, params, span, gather):
        # every path at N <= 4000: segments and chunks down to 16 indices,
        # chunks that cross segment ends, and block primes from 64 on by
        # multiplier (64^2 > 4000, so no n has two of them)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decomp, "_SPAN", span)
            patch.setattr(decomp, "_GATHER", gather)
            patch.setattr(decomp, "_LARGE", 64)
            dec, _ = assert_equals_unsegmented(params, primes_10k)
        for n in range(1, params.n, 37):
            assert dec.classification(n) == classify(n, params, primes_10k), n

    def test_per_n_arrays_own_their_memory(self, dec_pow2):
        # four allocations, not views of one shared 8 B/n buffer
        for arr in (dec_pow2.tags, dec_pow2.block_of, dec_pow2.unique_prime,
                    dec_pow2.in_pq):
            assert arr.base is None and arr.size == dec_pow2.params.n

    def test_product_sets_sieve_only_the_cofactors(self, monkeypatch):
        # Q_j needs the least block primes of m <= q_max(j0), and nothing
        # of [0, N) beyond them is sieved
        params = DecompositionParams(2_500_000, Fraction(1, 2), 3, 36)
        primes = window_primes(params)
        sieved, sieve = [], decomp._sieve

        def counted(least, in_s, lo, *blocks):
            sieved.append((lo, least.size))
            sieve(least, in_s, lo, *blocks)

        monkeypatch.setattr(decomp, "_sieve", counted)
        product_sets(params, primes)
        end = params.q_max(params.j0) + 1  # 493,828: two segments
        assert sieved == [(0, decomp._SPAN), (decomp._SPAN, end - decomp._SPAN)]

    def test_product_sets_hold_less_than_the_decomposition(self):
        # beyond its key (1 B/n) and Q_j the view holds the int32 lookup of
        # m <= q_max(j0) and one segment's bool buffer, and then one band
        # of _GATHER int64 products; the full build's outputs are 8 B/n and Q_j
        params = DecompositionParams(10 ** 6, Fraction(3, 10), 9, 30)
        primes = sieve_primes(3000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sets = product_sets(params, primes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        q_bytes = sum(q.nbytes for q in sets.q_sets.values())
        lookup = 4 * (params.q_max(params.j0) + 1)
        assert peak <= sets.key.nbytes + q_bytes + lookup + 5 * decomp._SPAN + (1 << 20), peak
        assert peak < (8 * params.n + q_bytes) / 2, peak


class TestCountsAgainstOracle:
    """Every count of the decomposition and of its coverage report against
    the independent per-n ``classify`` and ``q_membership`` oracles."""

    @pytest.mark.parametrize("alpha, j0, j1", [
        (Fraction(3, 10), 9, 30),
        (Fraction(1), 1, 11),  # D0 = 2 is an integer prime, D1 = 2048
    ])
    def test_every_count(self, primes_10k, alpha, j0, j1):
        params = DecompositionParams(3000, alpha, j0, j1)
        blocks = {j: {"primes": len(b), "q": 0, "s_j": 0, "pq_j": 0, "multiple_j": 0}
                  for j, b in zip(params.block_range, prime_blocks(params, primes_10k))}
        not_in_s = 0
        for n in range(1, params.n):
            c = classify(n, params, primes_10k)
            if c.tag == TAG_NOT_IN_S:
                not_in_s += 1
            elif c.tag == TAG_UNIQUE:
                blocks[c.j]["s_j"] += 1
                blocks[c.j]["pq_j"] += n // c.prime <= params.q_max(c.j)
            else:
                blocks[c.j]["multiple_j"] += 1
        for j, row in blocks.items():
            row["q"] = sum(q_membership(m, j, params, primes_10k)
                           for m in range(1, params.q_max(j) + 1))
        multiple = sum(row["multiple_j"] for row in blocks.values())
        pq = sum(row["pq_j"] for row in blocks.values())

        dec = build_decomposition(params, primes_10k)
        assert (dec.window_size, dec.count_not_in_s, dec.count_s, dec.count_multiple,
                dec.count_pq, dec.leftover_count) == (
                    params.n - 1, not_in_s, params.n - 1 - not_in_s, multiple, pq,
                    params.n - 1 - pq)
        counts = coverage_report(dec, primes_10k).counts
        assert counts["per_block"] == {str(j): row for j, row in blocks.items()}
        assert {k: v for k, v in counts.items() if k != "per_block"} == {
            "window": params.n - 1, "not_in_s": not_in_s,
            "in_s": params.n - 1 - not_in_s, "multiple": multiple,
            "product_sets": pq, "leftover": params.n - 1 - pq}


class TestCoverage:
    def test_fractions_in_unit_interval(self, dec_pow2, primes_10k):
        rep = coverage_report(dec_pow2, primes_10k)
        assert 0 <= rep.complement_fraction <= 1
        assert 0 <= rep.leftover_fraction <= 1
        for line in rep.lines:
            assert line.measured >= 0

    def test_exact_line_arithmetic(self, dec_pow2, primes_10k, params_pow2):
        # the per-block counts themselves are checked against the per-n
        # oracle in TestCountsAgainstOracle
        rep = coverage_report(dec_pow2, primes_10k)
        assert rep.line("complement_of_s").measured == dec_pow2.count_not_in_s
        assert rep.line("multi_divisor_excess").measured == dec_pow2.count_multiple
        assert rep.line("uncovered_total").measured == dec_pow2.leftover_count
        per_block = rep.counts["per_block"]
        assert list(per_block) == [str(j) for j in params_pow2.block_range]
        unf = sum(row["s_j"] - row["pq_j"] for row in per_block.values())
        assert rep.line("unfactored_tail").measured == unf

    def test_segment_boundaries_do_not_change_counts(self, primes_10k, monkeypatch):
        params = DecompositionParams(5000, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        whole = coverage_report(dec, primes_10k).as_dict()
        monkeypatch.setattr(decomp, "_SPAN", 97)
        monkeypatch.setattr(decomp, "_GATHER", 32)
        dec = build_decomposition(params, primes_10k)
        assert coverage_report(dec, primes_10k).as_dict() == whole

    def test_boundary_primes_reported_for_integer_alpha(self, dec_pow2, primes_10k):
        rep = coverage_report(dec_pow2, primes_10k)
        assert rep.boundary_primes == [2]  # D0 = 2 exactly

    def test_boundary_primes_at_the_edges(self, primes_10k):
        # D0 = 1.3^9 ~ 10.6 is no integer: its ceiling 11 is a block prime
        # inside (D0, D1), so it is no boundary prime and enters the product
        dec = build_decomposition(DecompositionParams(10 ** 5, Fraction(3, 10), 9, 30),
                                  primes_10k)
        rep = coverage_report(dec, primes_10k)
        block_primes = [p for b in dec.blocks for p in b.primes.tolist()]
        assert rep.boundary_primes == [] and block_primes[0] == 11
        assert rep.mertens_product == math.prod((1 - 1 / p for p in block_primes), start=1.0)
        # no blocks: D0 = D1 = 2, the prime D1 is reported and the product is empty
        params = DecompositionParams(1000, 1, 1, 1)
        rep = coverage_report(build_decomposition(params, primes_10k), primes_10k)
        assert rep.boundary_primes == [2] and rep.mertens_product == 1.0

    def test_mertens_product_close_at_desk_scale(self, primes_10k):
        params = DecompositionParams(10 ** 5, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        rep = coverage_report(dec, primes_10k)
        measured = float(rep.complement_fraction)
        assert abs(measured - rep.mertens_product) / rep.mertens_product < 0.05

    def test_report_deterministic(self, primes_10k):
        params = DecompositionParams(10 ** 4, Fraction(3, 10), 5, 12)
        a = coverage_report(build_decomposition(params, primes_10k), primes_10k)
        b = coverage_report(build_decomposition(params, primes_10k), primes_10k)
        assert a.as_dict() == b.as_dict()


class TestDisjointnessProperty:
    def test_at_most_one_block_membership(self, primes_10k):
        # random n: re-derive per-n block membership by direct factoring and
        # confirm no n satisfies the unique-divisor condition in two blocks
        params = DecompositionParams(5000, Fraction(3, 10), 5, 12)
        dec = build_decomposition(params, primes_10k)
        blocks = {j: set(int(v) for v in dec.block(j).primes)
                  for j in params.block_range}
        rng = random.Random(TEST_SEED)
        for _ in range(500):
            n = rng.randint(1, 4999)
            memberships = []
            for j in params.block_range:
                divs = [p for p in blocks[j] if n % p == 0]
                lower = any(p for i in params.block_range if i < j
                            for p in blocks[i] if n % p == 0)
                if len(divs) == 1 and n % (divs[0] ** 2) != 0 and not lower:
                    memberships.append(j)
            assert len(memberships) <= 1
            got = dec.classification(n)
            if got.tag == TAG_UNIQUE:
                assert memberships == [got.j]
                f = factorize(n)
                assert f[got.prime] == 1
