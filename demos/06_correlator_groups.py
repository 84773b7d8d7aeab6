#!/usr/bin/env python3
"""Which speed ratios p/q can correlate: the boundary-point trichotomy.

The parabolic stabilizer of a boundary point z carries the character
(alpha, beta; 0, 1/alpha) -> alpha^2; conjugating the unipotent step by a
stabilizer element scales time by exactly that factor. The rational values
of the character decide everything:

  z rational or infinite  -> every p/q occurs   (rich joinings possible)
  z quadratic surd        -> only 1             (values are surd units)
  z other irrational      -> only 1             (stabilizer is trivial)
"""

from fractions import Fraction

from horomu import (ParabolicElement, PointDescriptor, chi,
                    classify_correlator, conjugation_exponent_check,
                    surd_group_element)

for beta in (ParabolicElement(2, 0, Fraction(1, 2)),
             ParabolicElement(Fraction(3, 5), 7, Fraction(5, 3)),
             ParabolicElement("sqrt2", 1, "1/2*sqrt2")):
    print(f"chi({beta.alpha}, {beta.beta}; 0, {beta.delta}) = {chi(beta)}  "
          f"(conjugation law verified exactly: {conjugation_exponent_check(beta)})")

print("\nclassification across the boundary-point trichotomy:")
cases = [
    ("infinity", PointDescriptor.infinity()),
    ("3/4", PointDescriptor.from_rational(Fraction(3, 4))),
    ("sqrt(2)", PointDescriptor.quadratic_surd(1, 0, -2)),
    ("golden ratio", PointDescriptor.quadratic_surd(1, -1, -1)),
    ("e", PointDescriptor.irrational("e")),
]
for name, desc in cases:
    verdict = classify_correlator(desc)
    group = "all of Q*" if verdict.is_full else "only {1}"
    print(f"  z = {name:14s} -> rational correlator values: {group}")

print("\nstabilizer elements of the golden ratio (a, b, c) = (1, -1, -1), d = 5:")
for t, u in [(3, 1), (4, 1), (7, 2), (3, -1)]:
    el = surd_group_element(1, -1, -1, t, u)
    print(f"  (t, u) = ({t:2d},{u:+2d}): multiplier {el.value_float:10.6f} "
          f"= {el.value}   rational: "
          f"{el.is_rational_value}")
print("\nonly u = 0 ever lands on a rational multiplier:")
el = surd_group_element(1, -1, -1, 2, 0)
print(f"  (t, u) = ( 2, 0): multiplier {el.value_float} (the identity)")
