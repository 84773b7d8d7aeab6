import math
import random
from fractions import Fraction

import numpy as np
import pytest

from horomu import arith
from horomu.arith import (MultiplicativeTable, sieve_liouville, sieve_mobius,
                          sieve_primes)
from horomu.cli import main
from horomu.decomp import DecompositionParams, prime_blocks
from horomu.errors import CapacityError, RangeCoverageError, ValidationError

from conftest import (TEST_SEED, is_prime_oracle, liouville_oracle,
                      mobius_oracle)


class TestPrimeSieve:
    def test_small_examples(self):
        assert list(sieve_primes(2).primes) == [2]
        assert list(sieve_primes(10).primes) == [2, 3, 5, 7]

    def test_count_to_30_against_oracle(self):
        table = sieve_primes(30)
        oracle = [n for n in range(2, 31) if is_prime_oracle(n)]
        assert list(table.primes) == oracle
        assert len(table.primes) == 10
        assert table.primes[-1] == 29

    def test_exhaustive_to_1e4(self, primes_10k):
        oracle = [n for n in range(2, 10_001) if is_prime_oracle(n)]
        assert list(primes_10k.primes) == oracle

    def test_segment_boundaries(self):
        # force several segments with a small segment size via large n
        table = sieve_primes(2_000_003)
        assert table.contains(2_000_003)  # prime just past the last boundary
        assert not table.contains(2_000_001)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            sieve_primes(10 ** 10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sieve_primes(1)


class TestMobiusSieve:
    def test_first_ten(self):
        table = sieve_mobius(10)
        assert [table.value(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_square_factor(self, mobius_1k):
        assert mobius_1k.value(12) == 0

    def test_partial_sum_100(self, mobius_1k):
        oracle = sum(mobius_oracle(n) for n in range(1, 101))
        assert int(mobius_1k.values[1:101].sum()) == oracle == 1

    def test_exhaustive_to_1e4(self):
        table = sieve_mobius(10_000)
        for n in range(1, 10_001):
            assert table.value(n) == mobius_oracle(n), n

    def test_multiplicativity_sampled(self, mobius_1k):
        rng = random.Random(TEST_SEED)
        found = 0
        while found < 200:
            m = rng.randint(1, 31)
            n = rng.randint(1, 31)
            if math.gcd(m, n) == 1:
                found += 1
                assert mobius_1k.value(m * n) == mobius_1k.value(m) * mobius_1k.value(n)

    def test_invariants(self, mobius_1k):
        assert mobius_1k.value(1) == 1
        assert int(np.abs(mobius_1k.values).max()) <= 1


class TestLiouvilleSieve:
    def test_examples(self):
        table = sieve_liouville(10)
        assert table.value(1) == 1
        assert table.value(8) == -1  # three prime factors with multiplicity

    def test_partial_sum_100(self):
        table = sieve_liouville(100)
        oracle = sum(liouville_oracle(n) for n in range(1, 101))
        assert int(table.values[1:].sum()) == oracle == -2

    def test_exhaustive_to_1e4(self):
        table = sieve_liouville(10_000)
        for n in range(1, 10_001):
            assert table.value(n) == liouville_oracle(n), n


@pytest.fixture(scope="module")
def sign_oracles_10k():
    ns = range(1, 10_001)
    return [mobius_oracle(n) for n in ns], [liouville_oracle(n) for n in ns]


class TestSegmentedSignSieve:
    @pytest.mark.parametrize("segment", [97, 1000])
    def test_many_segments_match_oracles(self, segment, sign_oracles_10k, monkeypatch):
        # segments after the first start their prime-power slices at
        # -lo % p^k; at the default SEGMENT, n <= 1e4 fits in one segment
        monkeypatch.setattr(arith, "SEGMENT", segment)
        mu_oracle, lam_oracle = sign_oracles_10k
        assert sieve_mobius(10_000).values[1:].tolist() == mu_oracle
        assert sieve_liouville(10_000).values[1:].tolist() == lam_oracle


class TestMultiplicativeTable:
    def test_rejects_bad_unit(self):
        vals = np.zeros(3, dtype=np.int8)
        with pytest.raises(ValidationError):
            MultiplicativeTable(2, vals, "bad")

    def test_rejects_unbounded(self):
        vals = np.zeros(3, dtype=np.complex128)
        vals[1] = 1
        vals[2] = 2.5
        with pytest.raises(ValidationError):
            MultiplicativeTable(2, vals, "bad")

    def test_csv_round_trip(self, tmp_path, mobius_1k):
        # the table `sieve --series` writes reads back as the same table
        path = tmp_path / "mobius.csv"
        assert main(["sieve", "--kind", "mobius", "--n", str(mobius_1k.n_max),
                     "--series", str(path), "--out", str(tmp_path / "r.json")]) == 0
        back = MultiplicativeTable.from_csv(path, "mobius")
        assert back.n_max == mobius_1k.n_max
        assert np.array_equal(back.values, mobius_1k.values)
        header = path.read_text().splitlines()[0]
        assert header == "n,value"

    def test_range_error(self, mobius_1k):
        with pytest.raises(RangeCoverageError):
            mobius_1k.value(1001)


class TestPrimeBlocks:
    def test_doubling_block_3(self, primes_10k):
        blocks = prime_blocks(DecompositionParams(10_000, 1, 3, 4), primes_10k)
        assert list(blocks[0].primes) == [11, 13]

    def test_half_ratio_block_2(self, primes_10k):
        blocks = prime_blocks(DecompositionParams(10_000, Fraction(1, 2), 2, 3), primes_10k)
        assert list(blocks[0].primes) == [3]  # [2.25, 3.375)
        assert (blocks[0].lo, blocks[0].hi) == (3, 4)  # the integer bounds

    def test_boundary_prime_lands_once(self, primes_10k):
        # alpha = 1: the prime 2 sits exactly at a block edge
        blocks = prime_blocks(DecompositionParams(10_000, 1, 1, 4), primes_10k)
        membership = [int(p) for b in blocks for p in b.primes]
        assert membership == sorted(set(membership))
        assert 2 in membership

    @pytest.mark.parametrize("alpha,j_hi", [(Fraction(3, 10), 14),
                                            (Fraction(1, 2), 14), (1, 12)])
    def test_tiling_partition(self, alpha, j_hi, primes_10k):
        blocks = prime_blocks(DecompositionParams(10_000, alpha, 2, j_hi + 1), primes_10k)
        base = 1 + Fraction(alpha)
        union = []
        for j, b in zip(range(2, j_hi + 1), blocks, strict=True):
            # the exact rational definition of P_j
            lo, hi = base ** j, base ** (j + 1)
            assert b.primes.tolist() == [p for p in primes_10k.primes.tolist()
                                         if lo <= p < hi], j
            assert b.j == j and all(b.lo <= p < b.hi for p in b.primes)
            union.extend(int(p) for p in b.primes)
        expect = [int(p) for p in primes_10k.primes
                  if base ** 2 <= p < base ** (j_hi + 1)]
        assert union == expect

    def test_range_error(self, primes_10k):
        with pytest.raises(RangeCoverageError):
            prime_blocks(DecompositionParams(10 ** 7, 1, 1, 21), primes_10k)

    def test_block_count_asymptotics(self):
        # density sanity: |P_j| * j * log(2) / 2^j near 1 once 2^j >= 1000
        table = sieve_primes(70_000)
        for j in (10, 12, 14, 15):
            blocks = prime_blocks(DecompositionParams(100_000, 1, j, j + 1), table)
            ratio = len(blocks[0]) * j * math.log(2) / 2 ** j
            assert abs(ratio - 1) < 0.25, (j, ratio)
