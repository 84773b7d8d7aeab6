import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from horomu import exactreal
from horomu.errors import DescriptorError, DomainError
from horomu.exactreal import (FRAC_SHIFT, MAX_FRAC_INDEX, ExactSum, SymbolicReal,
                              as_symbolic, fixed_point_image, frac_parts,
                              ratio_as_rational, symbol_spec)

from conftest import TEST_SEED


def frac_parts_reference(value, ns):
    """The per-limb expression of frac_parts with fresh temporaries per limb."""
    ns = np.asarray(ns, dtype=np.int64)
    P = fixed_point_image(value, FRAC_SHIFT) % (1 << FRAC_SHIFT)
    limbs = [(P >> (24 * k)) & 0xFFFFFF for k in range(4)]
    out = np.zeros(ns.shape, dtype=np.float64)
    carry = np.zeros(ns.shape, dtype=np.int64)
    for k in range(4):
        c = ns * limbs[k] + carry
        out += (c & 0xFFFFFF).astype(np.float64) * 2.0 ** (24 * k - 96)
        carry = c >> 24
    return out


class TestParsing:
    @pytest.mark.parametrize("text,value", [
        ("3/4", 0.75),
        ("-1/2", -0.5),
        ("sqrt2", 2 ** 0.5),
        ("1+2*sqrt2", 1 + 2 * 2 ** 0.5),
        ("2-3*golden", 2 - 3 * (1 + 5 ** 0.5) / 2),
        ("exp1", float(np.exp(-1.0))),
        # a coefficient of several digits with no q0 before it
        ("10*sqrt2", 10 * 2 ** 0.5),
        ("-12/5*pi", -12 / 5 * np.pi),
        ("0.25*e", 0.25 * np.e),
    ])
    def test_values(self, text, value):
        assert float(SymbolicReal.parse(text)) == pytest.approx(value, rel=1e-12)

    def test_rejects_garbage(self):
        for bad in ("", "sqrt", "1**2", "e+pi", "sqrt:12x"):
            with pytest.raises(DescriptorError):
                SymbolicReal.parse(bad)

    def test_sqrt_requires_nonsquare(self):
        with pytest.raises(DescriptorError):
            symbol_spec("sqrt:9")
        with pytest.raises(DescriptorError):
            symbol_spec("sqrt:1")


_COEFFS = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                   st.fractions(max_denominator=10 ** 6))


class TestStrRoundTrip:
    @given(rational=st.fractions(max_denominator=10 ** 6), coeff=_COEFFS,
           symbol=st.sampled_from(["e", "pi", "inv_e", "inv_pi", "golden", "sqrt2",
                                   "sqrt:3", "sqrt7", "sqrt:1000003"]))
    def test_parse_reads_str_back(self, rational, coeff, symbol):
        # every registered constant, with and without q0, and coefficients
        # of either sign, fractional or +-1 (coeff 0 leaves a rational)
        for x in (SymbolicReal(rational), SymbolicReal(rational, coeff, symbol),
                  SymbolicReal(0, coeff, symbol)):
            assert SymbolicReal.parse(str(x)) == x, str(x)


class TestArithmetic:
    def test_quadratic_relations(self):
        g = SymbolicReal.const("golden")
        assert g * g == g + SymbolicReal.rat(1)
        s = SymbolicReal.const("sqrt2")
        assert s * s == SymbolicReal.rat(2)

    def test_transcendental_products_rejected(self):
        e = SymbolicReal.const("e")
        with pytest.raises(DescriptorError):
            _ = e * e

    def test_product_terms(self):
        # (1 + 2 sigma)(3 - sigma) = 3 + 5 sigma - 2 sigma^2
        x, y = SymbolicReal(1, 2, "pi"), SymbolicReal(3, -1, "pi")
        assert x.product_terms(y) == (3, 5, -2)
        assert x.product_terms(Fraction(1, 2)) == (Fraction(1, 2), 1, 0)
        # golden^2 = 1 + golden: 3 + 5 sigma - 2 (1 + sigma) = 1 + 3 sigma
        x, y = SymbolicReal(1, 2, "golden"), SymbolicReal(3, -1, "golden")
        assert x.product_terms(y) == (1, 3, 0) and x * y == SymbolicReal(1, 3, "golden")

    def test_mixed_symbols_rejected(self):
        with pytest.raises(DescriptorError):
            _ = SymbolicReal.const("e") + SymbolicReal.const("pi")

    def test_rational_collapse(self):
        v = SymbolicReal.const("sqrt2") - SymbolicReal.const("sqrt2")
        assert v.is_rational and v == SymbolicReal.rat(0)


    def test_sqrt_spellings_are_one_symbol(self):
        a, b = SymbolicReal.const("sqrt:2"), SymbolicReal.const("sqrt2")
        assert a.symbol == b.symbol == "sqrt2"
        assert a * b == 2 and a - b == 0
        assert SymbolicReal.parse("1/2*sqrt:2") == b / 2

    @pytest.mark.parametrize("name, square", [("sqrt7", (7, 0)), ("golden", (1, 1))])
    def test_conjugate_norm_division(self, name, square):
        a, b = square  # sigma^2 = a + b*sigma; the conjugate root is b - sigma
        sigma = SymbolicReal.const(name)
        assert sigma.conjugate() == b - sigma
        x = SymbolicReal(Fraction(3, 4), Fraction(-5, 2), name)
        assert x.norm() == Fraction(3, 4) ** 2 + b * Fraction(3, 4) * Fraction(-5, 2) \
            - a * Fraction(-5, 2) ** 2
        assert x * x.conjugate() == x.norm()
        assert (x / sigma) * sigma == x and SymbolicReal.rat(1) / x * x == 1
        assert x / 3 == SymbolicReal(Fraction(1, 4), Fraction(-5, 6), name)

    def test_division_rejects_zero_and_transcendentals(self):
        with pytest.raises(ZeroDivisionError):
            _ = SymbolicReal.const("sqrt2") / 0
        with pytest.raises(DescriptorError):
            _ = SymbolicReal.rat(1) / SymbolicReal.const("e")
        assert SymbolicReal.const("e", coeff=4) / 2 == SymbolicReal.const("e", coeff=2)

    def test_hash_agrees_with_equality(self):
        four, half = SymbolicReal(4), SymbolicReal(Fraction(1, 2))
        assert 4 in {four} and four in {Fraction(4)} and 4.0 in {four}
        assert hash(four) == hash(4) == hash(Fraction(4)) == hash(4.0)
        assert len({half, 0.5, Fraction(1, 2)}) == 1
        sqrt2 = SymbolicReal.const("sqrt2")
        assert sqrt2 - sqrt2 in {0}
        assert SymbolicReal.const("sqrt:2") in {sqrt2} and 2 not in {sqrt2}

    def test_equality_with_other_types_is_false(self):
        one = SymbolicReal(1)
        for other in ("abc", "1", None, [1], float("nan"), float("inf")):
            assert not one == other and one != other, other
        assert one in [None, "abc", 1] and one not in [None, "abc"]

    def test_coercion_is_exact(self):
        assert as_symbolic(0.1) == Fraction(0.1) != Fraction(1, 10)
        assert as_symbolic("1+2*sqrt:3") == SymbolicReal(1, 2, "sqrt3")
        v = SymbolicReal.const("pi")
        assert as_symbolic(v) is v


class TestRatio:
    def test_shared_symbol(self):
        a = SymbolicReal.const("e", coeff=2)
        c = SymbolicReal.const("e", coeff=4)
        assert ratio_as_rational(a, c) == Fraction(1, 2)

    def test_irrational(self):
        assert ratio_as_rational(SymbolicReal.rat(1),
                                 SymbolicReal.const("e")) is None
        assert ratio_as_rational(SymbolicReal.const("e", rational=1),
                                 SymbolicReal.const("e")) is None

    def test_pure_rational(self):
        assert ratio_as_rational(SymbolicReal.rat(3),
                                 SymbolicReal.rat(4)) == Fraction(3, 4)


class TestFracParts:
    @pytest.mark.parametrize("symbol", ["sqrt2", "pi", "inv_e", "golden"])
    def test_against_mpmath(self, symbol):
        mp.prec = 150
        val = symbol_spec(symbol).evaluate()
        ns = np.array([1, 7, 123456, 99_999_999], dtype=np.int64)
        got = frac_parts(symbol, ns)
        for n, f in zip(ns, got):
            assert abs(f - float(mp.frac(int(n) * val))) < 2e-14

    def test_rational_angles(self):
        got = frac_parts(Fraction(3, 8), np.arange(9))
        assert got == pytest.approx([(3 * n / 8) % 1 for n in range(9)], abs=1e-15)

    @pytest.mark.parametrize("symbol", ["sqrt2", "inv_e", "pi"])
    def test_bytes_equal_reference_expression(self, symbol):
        rng = np.random.default_rng(TEST_SEED)
        for ns in (np.arange(MAX_FRAC_INDEX - 4096, MAX_FRAC_INDEX),
                   rng.integers(0, MAX_FRAC_INDEX, 1 << 16),
                   np.arange(0, 5000), np.array([], dtype=np.int64),
                   np.arange(12).reshape(3, 4)):
            got = frac_parts(symbol, ns)
            want = frac_parts_reference(symbol, ns)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_index_cap(self):
        with pytest.raises(DescriptorError):
            frac_parts("sqrt2", np.array([1 << 40]))


class TestFixedPointImage:
    @staticmethod
    def floor_at(value: SymbolicReal, bits: int, prec: int = 600) -> int:
        old = mp.prec
        try:
            mp.prec = prec
            return int(mp.floor(value.mpf_value(prec) * mp.mpf(2) ** bits))
        finally:
            mp.prec = old

    @pytest.mark.parametrize("text", [
        "1000000000000000000000000*sqrt2", "-1000000000000000000000000*pi",
        # two terms near 2^80 that cancel to about 0.72
        "1414213562373095048801688-1000000000000000000000000*sqrt2",
        "1000000000000000000000000000001/3", "inv_e"])
    @pytest.mark.parametrize("bits", [10, 70, 96])
    def test_floor_of_large_values(self, text, bits):
        # the guard bits sit below the units of the larger term, so the
        # image is the floor however large the value or its terms
        value = SymbolicReal.parse(text)
        assert fixed_point_image(value, bits) == self.floor_at(value, bits)

    def test_entries_fixed_of_a_large_entry(self):
        from horomu.dynamics import ModularPoint
        big = SymbolicReal.const("sqrt2", 10 ** 24)
        xi = ModularPoint(1, big, 0, 1)
        want = [self.floor_at(as_symbolic(v) + Fraction(1, 2 ** 71), 70) for v in (1, big, 0, 1)]
        assert list(xi.entries_fixed(70)) == want


class TestNumerals:
    @pytest.mark.parametrize("text", ["1e10000000", "-2.5E+10000000", "1e-10000000",
                                      "1e1_000_000", "3e" + "9" * 5000])
    def test_huge_exponents_are_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            exactreal.read_numeral(text)
        with pytest.raises(DescriptorError):
            SymbolicReal.parse(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text, value", [
        ("1e-3", Fraction(1, 1000)), ("2.5E+7", Fraction(25_000_000)),
        ("3/7", Fraction(3, 7)), ("1e1_0", Fraction(10 ** 10)), ("0e8600", Fraction(0))])
    def test_numerals_read_as_fraction(self, text, value):
        assert exactreal.read_numeral(text) == value == Fraction(text)


def running_sums(values, ends) -> list[str]:
    """One ExactSum over values, read after adding up to each of the ends."""
    total, pos, sums = ExactSum(), 0, []
    for end in ends:
        total.add(values[pos:end])
        pos = end
        sums.append(total.value().hex())
    return sums


def fsum_prefixes(values, ends):
    return [math.fsum(values[:e]).hex() for e in ends]


def unsplit_prefix_sum(values):
    """The kernel without the mantissa split: one bincount of the 53-bit
    integer mantissas per exponent, whose float64 sums round once they
    pass 2^53."""
    mant, exp = np.frexp(np.asarray(values, dtype=np.float64))
    sums = np.bincount(exp + 1074, mant * 2.0 ** 53)
    return math.fsum(float(v) * 2.0 ** (k - 1074 - 53) for k, v in enumerate(sums))


def seeded_arrays(rng):
    """Wide exponents, subnormals, cancellation and shared exponents."""
    n = 100
    wide = rng.standard_normal(n) * np.exp2(rng.integers(-1074, 300, n))
    yield wide
    yield np.ldexp(rng.standard_normal(n), rng.integers(-1100, -1000, n))
    big = rng.standard_normal(n) * 1e16
    yield np.concatenate([big, -big[::-1] + rng.standard_normal(n) * 1e-10])
    yield 1.0 + rng.random(n) * 1e-3
    yield rng.choice([1e300, -1e300, 1.0, 5e-324, -5e-324, 0.0, -0.0, 1e-300], n)


class TestExactPrefixSums:
    """Prefix sums read off one ExactSum equal math.fsum of each prefix."""

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_seeded_arrays_across_chunk_boundaries(self, chunk, monkeypatch):
        if chunk is not None:  # chunks split inside and at the ends
            monkeypatch.setattr(exactreal, "_SUM_CHUNK", chunk)
        rng = np.random.default_rng(TEST_SEED)
        for values in seeded_arrays(rng):
            n = values.size
            ends = sorted({0, 1, 6, 7, 8, 14, 15, n // 2, n - 1, n}
                          | set(rng.integers(0, n + 1, 8).tolist()))
            ends = ends[:3] + ends[2:] + [n]  # repeated ends
            assert running_sums(values, ends) == fsum_prefixes(values, ends)

    def test_shared_exponent_needs_the_split(self):
        # 5000 mantissas near 2^52..2^53 share the exponent of 1.0: their sum
        # passes 2^53 and a single float64 bincount rounds it
        rng = np.random.default_rng(TEST_SEED)
        values = 1.0 + rng.integers(1, 1 << 52, 5000) * 2.0 ** -52
        assert len(set(np.frexp(values)[1].tolist())) == 1
        assert unsplit_prefix_sum(values).hex() != math.fsum(values).hex()
        assert running_sums(values, [5000]) == fsum_prefixes(values, [5000])

    def test_empty(self):
        assert running_sums([], [0, 0]) == ["0x0.0p+0"] * 2
        assert running_sums([1.5, -0.0], [0]) == ["0x0.0p+0"]
        assert running_sums([-0.0], [1]) == fsum_prefixes([-0.0], [1])

    def test_peak_memory_is_per_chunk(self):
        rng = np.random.default_rng(TEST_SEED)
        values = rng.standard_normal(10 ** 6) * np.exp2(rng.integers(-900, 0, 10 ** 6))
        tracemalloc.start()
        try:
            sums = running_sums(values, [10, 10 ** 5, 10 ** 6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * exactreal._SUM_CHUNK  # the values take 8 MB
        assert sums == fsum_prefixes(values, [10, 10 ** 5, 10 ** 6])


def random_splits(data, values):
    """Sorted cut points into values, ending with len(values)."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=6)))
    return cuts + [len(values)]


def exact_sum_or_overflow(values):
    """The correctly rounded sum by exact rationals, independent of fsum."""
    try:
        return float(sum(map(Fraction, values))).hex()
    except OverflowError:
        return "DomainError"


class TestExactSum:
    """The running sum read after any split is the correctly rounded sum of
    the finite values added so far: math.fsum's value where fsum's partial
    sums stay finite, and the exact rational sum rounded everywhere. A nan
    or an infinity is refused at ``add``."""

    @given(st.data())
    def test_random_splits_equal_fsum(self, data):
        values = data.draw(st.lists(st.floats(-1e300, 1e300, allow_subnormal=True),
                                    max_size=60))
        total, pos = ExactSum(), 0
        for end in random_splits(data, values):
            total.add(values[pos:end])
            pos = end
            assert total.value().hex() == math.fsum(values[:end]).hex()

    @given(st.data())
    def test_random_splits_equal_the_rational_sum(self, data):
        # all finite floats, with many near the largest, whose sums overflow
        huge = st.floats(1e308, sys.float_info.max)
        finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
        values = data.draw(st.lists(finite | huge | huge.map(float.__neg__),
                                    max_size=60))
        total, pos = ExactSum(), 0
        for end in random_splits(data, values):
            total.add(values[pos:end])
            pos = end
            try:
                got = total.value().hex()
            except DomainError:
                got = "DomainError"
            assert got == exact_sum_or_overflow(values[:end])

    def test_sum_past_fsum_partials(self):
        values = [1.7e308, 1.7e308, -1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(values)
        total = ExactSum()
        total.add(values)
        assert total.value() == 1.7e308

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise_at_add(self, bad, monkeypatch):
        # one value per chunk: the 2.0 is a chunk of its own before the bad one
        monkeypatch.setattr(exactreal, "_SUM_CHUNK", 1)
        total = ExactSum()
        total.add([1.0])
        with pytest.raises(DomainError, match="finite values"):
            total.add([2.0, bad, 3.0])
        assert total.value() == 1.0  # the refused values add nothing

    def test_empty_sum_is_zero(self):
        assert ExactSum().value() == 0.0

    def test_buckets_fold_into_an_int(self, monkeypatch):
        # chunks of 5 values, each folded into the running int on its own
        monkeypatch.setattr(exactreal, "_SUM_CHUNK", 5)
        rng = np.random.default_rng(TEST_SEED)
        for values in seeded_arrays(rng):
            total = ExactSum()
            for lo in range(0, values.size, 13):
                total.add(values[lo:lo + 13])
                assert total.value().hex() == math.fsum(values[:lo + 13]).hex()
