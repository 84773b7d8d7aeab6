"""Correlator-group classification for lattices commensurable with SL2(Z).

The stabilizer of a boundary point z carries a character chi sending an
upper-triangular element diag-conjugate (alpha, beta; 0, delta), with
alpha*delta = 1, to alpha^2; conjugating the unipotent step u by such an
element raises it to the power chi. The rational values of chi on the
commensurated stabilizer decide which speed ratios p/q admit nontrivial
joinings, and they depend only on the arithmetic of z:

* z rational or infinite: every positive rational occurs;
* z a quadratic surd with a z^2 + b z + c = 0, d = b^2 - 4ac > 0 nonsquare:
  the values are the totally positive unit-like ratios (t + u sqrt d)/(t -
  u sqrt d), none of which is rational except 1;
* z any other irrational: only the identity.

The character, the conjugation law and every rationality decision run in
exact arithmetic: SymbolicReal entries, over Q(sqrt d) for the surds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DescriptorError, ShapeError, ValidationError
from .exactreal import SymbolicReal, as_symbolic, symbol_spec


# ---------------------------------------------------------------------------
# parabolic elements and the character
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParabolicElement:
    """Upper-triangular (alpha, beta; 0, delta) with alpha*delta = 1 exactly.

    Entries are SymbolicReal; a float converts exactly, as Fraction(float) does.
    """

    alpha: SymbolicReal
    beta: SymbolicReal
    delta: SymbolicReal

    def __post_init__(self):
        for name in ("alpha", "beta", "delta"):
            object.__setattr__(self, name, as_symbolic(getattr(self, name)))
        if self.alpha * self.delta != 1:
            raise ShapeError(f"alpha*delta = {self.alpha * self.delta} is not 1")

    def inverse(self) -> "ParabolicElement":
        return ParabolicElement(self.delta, -self.beta, self.alpha)

    def compose(self, other: "ParabolicElement") -> "ParabolicElement":
        return ParabolicElement(self.alpha * other.alpha,
                                self.alpha * other.beta + self.beta * other.delta,
                                self.delta * other.delta)


def chi(beta: ParabolicElement) -> SymbolicReal:
    """The exact multiplier alpha^2 > 0 of a parabolic element."""
    return beta.alpha * beta.alpha


def conjugation_exponent_check(beta: ParabolicElement) -> bool:
    """Verify beta u beta^-1 = (1, chi(beta); 0, 1) exactly."""
    step = ParabolicElement(1, 1, 1)
    return beta.compose(step).compose(beta.inverse()) == ParabolicElement(1, chi(beta), 1)


# ---------------------------------------------------------------------------
# point descriptors and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointDescriptor:
    """Exact arithmetic type of a boundary point.

    kind is one of 'infinity', 'rational', 'quadratic', 'irrational'.
    """

    kind: str
    rational: Optional[Fraction] = None
    surd: Optional[tuple[int, int, int]] = None
    symbol: Optional[str] = None

    @staticmethod
    def infinity() -> "PointDescriptor":
        return PointDescriptor("infinity")

    @staticmethod
    def from_rational(value) -> "PointDescriptor":
        return PointDescriptor("rational", rational=Fraction(value))

    @staticmethod
    def quadratic_surd(a: int, b: int, c: int) -> "PointDescriptor":
        """Root (-b + sqrt(d))/(2a) of a z^2 + b z + c with d = b^2-4ac > 0 nonsquare."""
        a, b, c = int(a), int(b), int(c)
        if a == 0:
            raise DescriptorError("leading coefficient must be nonzero")
        if math.gcd(math.gcd(abs(a), abs(b)), abs(c)) != 1:
            raise DescriptorError(f"coefficients ({a},{b},{c}) must be coprime")
        d = b * b - 4 * a * c
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise DescriptorError(
                f"discriminant {d} must be positive and not a square")
        return PointDescriptor("quadratic", surd=(a, b, c))

    @staticmethod
    def irrational(symbol: str) -> "PointDescriptor":
        spec = symbol_spec(symbol)
        if spec.square is not None:
            raise DescriptorError(
                f"{symbol} is a quadratic surd; use quadratic_surd instead")
        return PointDescriptor("irrational", symbol=symbol)

    @property
    def discriminant(self) -> Optional[int]:
        if self.surd is None:
            return None
        a, b, c = self.surd
        return b * b - 4 * a * c

    def __str__(self):
        if self.kind == "infinity":
            return "infinity"
        if self.kind == "rational":
            return str(self.rational)
        if self.kind == "quadratic":
            return f"surd{self.surd}"
        return self.symbol


@dataclass(frozen=True)
class CorrelatorClass:
    """Verdict: the set of rational correlator values at this point."""

    kind: str  # 'full_rational' | 'trivial'
    witness: Optional["SurdGroupElement"] = None

    @property
    def is_full(self) -> bool:
        return self.kind == "full_rational"

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        return out


def classify_correlator(z: PointDescriptor) -> CorrelatorClass:
    """Rational correlator values: all of Q* iff z is rational or infinite.

    For quadratic surds the group itself is infinite, generated by ratios
    (t + u sqrt d)/(t - u sqrt d); a sample element is attached as witness.
    """
    if z.kind in ("infinity", "rational"):
        return CorrelatorClass("full_rational")
    if z.kind == "quadratic":
        a, b, c = z.surd
        t = math.isqrt(z.discriminant) + 1  # t^2 - d > 0
        witness = surd_group_element(a, b, c, t, 1)
        return CorrelatorClass("trivial", witness)
    if z.kind == "irrational":
        return CorrelatorClass("trivial")
    raise DescriptorError(f"unknown descriptor kind {z.kind!r}")


# ---------------------------------------------------------------------------
# the surd stabilizer parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurdGroupElement:
    """One stabilizer element of a quadratic surd and its multiplier.

    The matrix ((t-bu)/2, -cu; au, (t+bu)/2) has determinant
    (t^2 - d u^2)/4 > 0, fixes the root z, and its multiplier is
    (t + u sqrt d)/(t - u sqrt d).
    """

    a: int
    b: int
    c: int
    t: Fraction
    u: Fraction
    value: SymbolicReal
    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    @property
    def value_float(self) -> float:
        return float(self.value)

    @property
    def is_rational_value(self) -> bool:
        return self.value.is_rational

    def as_dict(self) -> dict:
        d = self.b * self.b - 4 * self.a * self.c
        return {"t": str(self.t), "u": str(self.u),
                "value": f"{self.value.rational} + {self.value.coeff}*sqrt({d})",
                "value_float": repr(self.value_float),
                "matrix": [[str(v) for v in row] for row in self.matrix],
                "rational": self.is_rational_value}


def surd_group_element(a: int, b: int, c: int, t, u) -> SurdGroupElement:
    """Build the stabilizer element with parameters (t, u), t^2 - d u^2 > 0.

    Verifies exactly, in Q(sqrt d), that the matrix fixes
    z = (-b + sqrt d)/(2a) with eigenvalue r z + s = (t + u sqrt d)/2; the
    multiplier is that eigenvalue over its conjugate, the eigenvalue at the
    conjugate fixed point.
    """
    t, u = Fraction(t), Fraction(u)
    desc = PointDescriptor.quadratic_surd(a, b, c)
    d = desc.discriminant
    norm = t * t - d * u * u
    if norm <= 0:
        raise ValidationError(f"need t^2 - d u^2 > 0, got {norm}")
    root = f"sqrt{d}"
    m = ((t - b * u) / 2, Fraction(-c * u)), (Fraction(a * u), (t + b * u) / 2)
    z = SymbolicReal(Fraction(-b, 2 * a), Fraction(1, 2 * a), root)
    eigen = SymbolicReal(t / 2, u / 2, root)
    if z * m[1][0] + m[1][1] != eigen or z * m[0][0] + m[0][1] != z * eigen:
        raise ValidationError(
            f"stabilizer construction failed to fix the surd for (t,u)=({t},{u})")
    return SurdGroupElement(a, b, c, t, u, eigen / eigen.conjugate(), m)
