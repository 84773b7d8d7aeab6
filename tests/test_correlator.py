import math
import random
from fractions import Fraction

import pytest

from horomu.correlator import (CorrelatorClass, ParabolicElement, PointDescriptor,
                               chi, classify_correlator,
                               conjugation_exponent_check, surd_group_element)
from horomu.errors import DescriptorError, ShapeError, ValidationError
from horomu.exactreal import SymbolicReal

from conftest import TEST_SEED


def surd(x, y, d):
    return SymbolicReal(x, y, f"sqrt{d}")


class TestQSurd:
    """Arithmetic in Q(sqrt d) and Q(golden), carried by SymbolicReal."""

    def test_arithmetic(self):
        a = surd(1, 1, 5)
        b = surd(2, -1, 5)
        assert a * b == surd(-3, 1, 5)
        assert (a / a) == 1
        assert a.conjugate() == surd(1, -1, 5)
        assert a.conjugate().norm() == a.norm() == Fraction(-4)
        assert a / b == surd(-7, -3, 5)

    def test_golden_conjugate(self):
        g = SymbolicReal.const("golden")
        assert g.conjugate() == 1 - g
        assert g.norm() == -1 == g * g.conjugate()
        assert SymbolicReal.rat(1) / g == g - 1
        v = SymbolicReal(Fraction(3, 2), Fraction(-5, 7), "golden")
        assert v.norm() == v * v.conjugate()
        assert (v / v.conjugate()) * (v.conjugate() / v) == 1

    def test_rationality_is_exact(self):
        v = surd(Fraction(7, 2), Fraction(3, 2), 5)
        assert not v.is_rational
        assert (v * v.conjugate()).is_rational

    def test_rejects_square_discriminant(self):
        with pytest.raises(DescriptorError):
            surd(1, 1, 9)

    def test_mixed_discriminants(self):
        with pytest.raises(DescriptorError):
            surd(1, 1, 5) + surd(1, 1, 7)
        with pytest.raises(DescriptorError):
            surd(1, 1, 5) / surd(1, 1, 7)


class TestChi:
    def test_two_half(self):
        assert chi(ParabolicElement(2.0, 0.0, 0.5)) == 4

    def test_identity(self):
        assert chi(ParabolicElement(1, 0, 1)) == 1

    def test_three_seven(self):
        assert chi(ParabolicElement(3, 7, Fraction(1, 3))) == 9

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ParabolicElement(2, 0, 2)  # alpha*delta != 1
        with pytest.raises(ShapeError):
            ParabolicElement(3.0, 7.0, 1 / 3)  # the float 1/3 is not exactly 1/3
        assert ParabolicElement(2, 1, 0.5) == ParabolicElement(2, 1, Fraction(1, 2))

    def test_surd_entries(self):
        root2 = SymbolicReal.const("sqrt2")
        beta = ParabolicElement(root2, "1+sqrt:2", root2 / 2)
        assert chi(beta) == 2 and chi(beta).is_rational
        assert conjugation_exponent_check(beta)

    def test_homomorphism_sampled(self):
        rng = random.Random(TEST_SEED)
        for _ in range(100):
            a1, a2 = Fraction(rng.uniform(0.2, 4)), Fraction(rng.uniform(0.2, 4))
            b1, b2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            e1 = ParabolicElement(a1, b1, 1 / a1)
            e2 = ParabolicElement(a2, b2, 1 / a2)
            prod = e1.compose(e2)
            assert chi(prod) == chi(e1) * chi(e2)


class TestConjugationLaw:
    def test_identity(self):
        assert conjugation_exponent_check(ParabolicElement(1, 0, 1))

    def test_diag_two(self):
        beta = ParabolicElement(2.0, 0.0, 0.5)
        lhs = beta.compose(ParabolicElement(1, 1, 1)).compose(beta.inverse())
        assert (lhs.alpha, lhs.beta, lhs.delta) == (1, 4, 1)
        assert conjugation_exponent_check(beta)

    def test_hundred_random(self):
        rng = random.Random(TEST_SEED)
        for _ in range(100):
            alpha = 0.0
            while abs(alpha) < 0.1:
                alpha = rng.uniform(-10, 10)
            beta = rng.uniform(-10, 10)
            alpha = Fraction(alpha)  # the sampled float, exactly
            assert conjugation_exponent_check(ParabolicElement(alpha, beta, 1 / alpha))

    def test_detects_a_wrong_exponent(self):
        beta = ParabolicElement(3, 1, Fraction(1, 3))
        lhs = beta.compose(ParabolicElement(1, 1, 1)).compose(beta.inverse())
        assert lhs == ParabolicElement(1, 9, 1) != ParabolicElement(1, 3, 1)


class TestDescriptors:
    def test_surd_validation(self):
        with pytest.raises(DescriptorError):
            PointDescriptor.quadratic_surd(1, 0, -4)  # d = 16 is a square
        with pytest.raises(DescriptorError):
            PointDescriptor.quadratic_surd(1, 0, 1)  # d = -4 negative
        with pytest.raises(DescriptorError):
            PointDescriptor.quadratic_surd(2, 0, -4)  # gcd 2

    def test_irrational_rejects_quadratic_symbol(self):
        with pytest.raises(DescriptorError):
            PointDescriptor.irrational("sqrt2")

    def test_discriminants(self):
        assert PointDescriptor.quadratic_surd(1, 0, -2).discriminant == 8
        assert PointDescriptor.quadratic_surd(1, -1, -1).discriminant == 5


class TestClassification:
    @pytest.mark.parametrize("descriptor,expected", [
        (PointDescriptor.infinity(), "full_rational"),
        (PointDescriptor.from_rational(Fraction(3, 4)), "full_rational"),
        (PointDescriptor.quadratic_surd(1, 0, -2), "trivial"),
        (PointDescriptor.quadratic_surd(1, -1, -1), "trivial"),
        (PointDescriptor.irrational("e"), "trivial"),
    ])
    def test_classification_table(self, descriptor, expected):
        got = classify_correlator(descriptor)
        assert got.kind == expected

    def test_surd_witness_attached(self):
        got = classify_correlator(PointDescriptor.quadratic_surd(1, 0, -2))
        assert got.witness is not None
        assert not got.witness.is_rational_value
        assert got.witness.value_float != 1.0


class TestSurdGroupElements:
    def test_identity_element(self):
        el = surd_group_element(1, 0, -2, 1, 0)
        assert el.value == 1
        assert el.value_float == 1.0

    def test_golden_fundamental(self):
        el = surd_group_element(1, -1, -1, 3, 1)
        assert el.value == surd(Fraction(7, 2), Fraction(3, 2), 5)
        assert el.value == surd(3, 1, 5) / surd(3, -1, 5)
        assert el.value_float == pytest.approx((3 + math.sqrt(5)) / (3 - math.sqrt(5)),
                                               rel=1e-14)
        assert el.value_float == pytest.approx(6.854101966249685, rel=1e-12)

    def test_matrix_fixes_golden_ratio(self):
        el = surd_group_element(1, -1, -1, 3, 1)
        (p, q), (r, s) = el.matrix
        phi = SymbolicReal.const("golden")
        assert (phi * p + q) / (phi * r + s) == phi

    def test_inverse_parameters(self):
        el = surd_group_element(1, -1, -1, 3, -1)
        base = surd_group_element(1, -1, -1, 3, 1)
        assert el.value * base.value == 1
        assert el.value == base.value.conjugate()

    def test_norm_precondition(self):
        with pytest.raises(ValidationError):
            surd_group_element(1, 0, -2, 1, 1)  # 1 - 8 < 0

    def test_rationality_probe_exact(self):
        rng = random.Random(TEST_SEED)
        done = 0
        while done < 100:
            a = rng.randint(1, 6)
            b = rng.randint(-6, 6)
            c = rng.randint(-6, 6)
            if a == 0 or math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                continue
            d = b * b - 4 * a * c
            if d <= 0 or math.isqrt(d) ** 2 == d:
                continue
            u = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            if t * t - d * u * u <= 0:
                continue
            el = surd_group_element(a, b, c, t, u)
            assert el.is_rational_value == (u == 0)
            if u == 0:
                assert el.value == 1
            done += 1

    def test_group_closure_under_product(self):
        # values multiply like the stabilizer composes
        e1 = surd_group_element(1, -1, -1, 3, 1)
        e2 = surd_group_element(1, -1, -1, 4, 1)
        (p1, q1), (r1, s1) = e1.matrix
        (p2, q2), (r2, s2) = e2.matrix
        p, q = p1 * p2 + q1 * r2, p1 * q2 + q1 * s2
        r, s = r1 * p2 + s1 * r2, r1 * q2 + s1 * s2
        phi = surd(Fraction(1, 2), Fraction(1, 2), 5)
        assert (phi * p + q) / (phi * r + s) == phi
        eigen = phi * r + s  # the product's eigenvalue at phi
        assert eigen / eigen.conjugate() == e1.value * e2.value
