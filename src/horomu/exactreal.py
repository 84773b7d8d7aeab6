"""Exact real scalars for symbolic matrix entries and phase reduction.

Three needs drive this module:

* genericity decisions must never be made from floats, so matrix entries
  are stored as ``q0 + q1*sigma`` with exact rational ``q0, q1`` and a
  named irrational constant ``sigma``;
* long exponential sums need ``frac(n*theta)`` to full double precision
  for n up to ~1e9, which a plain float64 product cannot deliver;
* orbit averages are rounded once from the exact sum of their float64
  terms (``ExactSum``, a running sum in one Python int, fed at array
  speed in O(chunk) memory, that takes finite terms only and so needs
  neither a count nor fsum's rules for nan and the infinities).

The fractional parts are computed through a 96-bit fixed-point integer
image P of the constant, so both the sequence builder and any closed-form
oracle reduce angles through the identical channel: the residues
n*P mod 2^96 are integers, formed limb by limb, and one float assembly
of the limbs rounds them (``frac_parts``).
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from mpmath import mp, mpf

from .errors import DescriptorError, DomainError

FRAC_SHIFT = 96
_LIMB = 24
_LIMB_MASK = (1 << _LIMB) - 1
_NLIMB = FRAC_SHIFT // _LIMB
MAX_FRAC_INDEX = 1 << 38  # keeps limb products inside int64
_SUM_CHUNK = 1 << 13  # below 2^26, so a chunk's sums of 27-bit halves stay exact
_EXP_OFFSET = 1074  # np.frexp exponents of finite floats are >= -1073


@dataclass(frozen=True)
class SymbolSpec:
    """A named irrational constant.

    ``square`` gives the minimal quadratic relation sigma^2 = a + b*sigma
    over Q when one exists (quadratic surds), else None.
    """

    name: str
    evaluate: Callable[[], mpf]  # at current mpmath precision
    square: Optional[tuple[Fraction, Fraction]]


def _sqrt_spec(d: int) -> SymbolSpec:
    return SymbolSpec(f"sqrt{d}", lambda d=d: mp.sqrt(d), (Fraction(d), Fraction(0)))


_REGISTRY: dict[str, SymbolSpec] = {
    "e": SymbolSpec("e", lambda: mp.e, None),
    "pi": SymbolSpec("pi", lambda: mp.pi, None),
    "inv_e": SymbolSpec("inv_e", lambda: 1 / mp.e, None),
    "inv_pi": SymbolSpec("inv_pi", lambda: 1 / mp.pi, None),
    "golden": SymbolSpec("golden", lambda: (1 + mp.sqrt(5)) / 2,
                         (Fraction(1), Fraction(1))),
}


def symbol_spec(name: str) -> SymbolSpec:
    """Look up a registered constant; sqrt:d / sqrtD names are synthesized."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    m = re.fullmatch(r"sqrt:?(\d+)", name)
    if m:
        d = int(m.group(1))
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise DescriptorError(f"sqrt argument must be a nonsquare >= 2, got {d}")
        return _sqrt_spec(d)
    raise DescriptorError(f"unknown symbolic constant {name!r}")


def fixed_point_image(value, bits: int) -> int:
    """floor(value * 2^bits) for anything ``as_symbolic`` reads: in integers
    for a rational value, else from the value at bits + 64 bits of mpmath
    precision below the units of its larger term, so a large value keeps 64
    guard bits below 2^-bits too."""
    x = as_symbolic(value)
    if x.is_rational:
        return (x.rational.numerator << bits) // x.rational.denominator
    sigma_bits = max(0, int(mp.mag(symbol_spec(x.symbol).evaluate())))
    prec = bits + 64 + max(_whole_bits(x.rational), _whole_bits(x.coeff) + sigma_bits)
    old = mp.prec
    try:
        mp.prec = prec
        return int(mp.floor(x.mpf_value(prec) * (mpf(2) ** bits)))
    finally:
        mp.prec = old


def _whole_bits(q: Fraction) -> int:
    """The bit length of floor(|q|), so |q| < 2^k."""
    return (abs(q.numerator) // q.denominator).bit_length()


def frac_parts(value, ns) -> np.ndarray:
    """frac(n * value) for an array of nonnegative integers n < MAX_FRAC_INDEX.

    Within 2^-54 + 2^-77 of the exact frac(n*P / 2^96), where P is the
    constant's 96-bit fixed-point floor: (n*P) mod 2^96 is evaluated in
    int64 one 24-bit limb of P at a time (each limb product plus the carry
    stays below 2^63) as the 24-bit limbs l0..l3, and assembled as
    fl(fl(lo 2^-96 + l2 2^-48) + l3 2^-24) with lo = l1 2^24 + l0. Every
    term is exact in float64, so only the two adds round: the first below
    2^-24 (by at most 2^-77), the second below 1 (by at most 2^-54). The
    limb loop runs over the whole of ``ns`` through work buffers of its
    size, so a caller that wants them in cache passes few indices a call.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and int(ns.max()) >= MAX_FRAC_INDEX:
        raise DescriptorError(f"frac_parts index exceeds {MAX_FRAC_INDEX}")
    if ns.size and int(ns.min()) < 0:
        raise DescriptorError("frac_parts indices must be nonnegative")
    P = fixed_point_image(value, FRAC_SHIFT) % (1 << FRAC_SHIFT)
    digits, carry = [], 0
    for k in range(_NLIMB):
        c = ns * ((P >> (_LIMB * k)) & _LIMB_MASK)
        c += carry
        carry = c >> _LIMB
        c &= _LIMB_MASK
        digits.append(c)
    lo = (digits[1] << _LIMB) | digits[0]
    out = lo * 2.0 ** -FRAC_SHIFT
    out += digits[2] * 2.0 ** (2 * _LIMB - FRAC_SHIFT)
    out += digits[3] * 2.0 ** (3 * _LIMB - FRAC_SHIFT)
    return out


class ExactSum:
    """A running sum of finite float64 values: ``value()`` is, at any point,
    the correctly rounded sum of everything added so far. It equals
    math.fsum of the values wherever fsum's partial sums stay finite, and
    needs no headroom where they do not: [1.7e308, 1.7e308, -1.7e308] sums
    to 1.7e308. ``add`` raises DomainError for values holding a nan or an
    infinity and then adds none of them; ``value()`` raises DomainError
    when the sum lies beyond float64.

    np.frexp writes each finite value as M * 2^(k - 53) with an integer
    |M| < 2^53, split into a 27-bit high and a 26-bit low half. Per chunk
    of at most _SUM_CHUNK values, one np.bincount per half adds the halves
    of each exponent k; every chunk sum stays below 2^53, so float64 adds
    them exactly, and the chunk's buckets go at once into one Python int,
    the exact sum in units of 2^-(_EXP_OFFSET + 53). ``value()`` rounds
    it once, correctly, by one int / int true division. Memory stays
    O(_SUM_CHUNK) at any count.
    """

    def __init__(self):
        self._total = 0  # in units of 2^-(_EXP_OFFSET + 53)

    def add(self, values) -> None:
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        total = self._total
        for lo in range(0, values.size, _SUM_CHUNK):
            chunk = values[lo:lo + _SUM_CHUNK]
            mant, exp = np.frexp(chunk)
            exp += _EXP_OFFSET
            mant *= 2.0 ** 27
            half = np.floor(mant)
            high = np.bincount(exp, half)
            if not np.isfinite(high).all():  # a nan or an infinity
                bad = chunk[~np.isfinite(chunk)][0]
                raise DomainError(f"ExactSum takes finite values, got {float(bad)!r}")
            mant -= half
            mant *= 2.0 ** 26
            low = np.bincount(exp, mant)
            total += _bucket_int(high.astype(np.int64), low.astype(np.int64))
        self._total = total

    def value(self) -> float:
        try:
            return self._total / (1 << (_EXP_OFFSET + 53))
        except OverflowError:
            raise DomainError("the exact sum lies beyond float64") from None


def _bucket_int(high: np.ndarray, low: np.ndarray) -> int:
    """sum_i (high[i] * 2^26 + low[i]) * 2^i, by Horner from the top bucket."""
    nz = np.flatnonzero(high | low)[::-1]
    if not nz.size:
        return 0
    acc, prev = 0, int(nz[0])
    for i, h, lo in zip(nz.tolist(), high[nz].tolist(), low[nz].tolist()):
        acc = (acc << (prev - i)) + (h << 26) + lo
        prev = i
    return acc << prev


# q0 +|- [q1 *] constant, or [+|-] [q1 *] constant: q0 comes only with the
# sign after it, so the digits of 10*sqrt2 cannot split into q0 = 1 and 0*
_TOKEN = re.compile(r"(?:(?P<rat>-?\d+(?:/\d+)?|-?\d*\.\d+)\s*(?P<op>[+-])"
                    r"|(?P<sign>[+-])?)\s*"
                    r"(?:(?P<coef>\d+(?:/\d+)?|\d*\.\d+)\s*\*\s*)?"
                    r"(?P<sym>[A-Za-z_][A-Za-z_0-9:]*)")


class SymbolicReal:
    """Exact scalar q0 + q1*sigma with rational q0, q1 and named sigma.

    All arithmetic that leaves this module's closed form (e.g. products or
    quotients of two transcendental parts) raises rather than approximating,
    so any rationality decision downstream is sound.
    """

    __slots__ = ("rational", "coeff", "symbol")

    def __init__(self, rational=0, coeff=0, symbol=None):
        self.rational = Fraction(rational)
        self.coeff = Fraction(coeff)
        # the canonical name validates the vocabulary and makes sqrt:2 == sqrt2
        self.symbol = symbol_spec(symbol).name if self.coeff != 0 else None

    # -- construction ---------------------------------------------------
    @classmethod
    def rat(cls, value) -> "SymbolicReal":
        return cls(Fraction(value))

    @classmethod
    def const(cls, name: str, coeff=1, rational=0) -> "SymbolicReal":
        return cls(Fraction(rational), Fraction(coeff), name)

    @classmethod
    def parse(cls, text: str) -> "SymbolicReal":
        """The one grammar for exact reals: any numeral ``Fraction`` reads
        ('3/4', '-0.5', '1e-3'), a constant ('sqrt2', 'sqrt:2', 'e', 'exp1'
        for inv_e) or q0 + q1*constant ('1+2*sqrt2', '-1/2*pi')."""
        text = text.strip()
        try:
            value = read_numeral(text)
            str(value)  # reports print it: past Python's digit limit this raises
            return cls(value)
        except (ValueError, ZeroDivisionError):
            pass
        if text == "exp1":  # CLI alias: the entry value 1/e
            return cls.const("inv_e")
        m = _TOKEN.fullmatch(text)
        if not m:
            raise DescriptorError(f"cannot parse symbolic real {text!r}")
        try:
            rat = Fraction(m.group("rat") or 0)
            coeff = Fraction(m.group("coef") or 1)
        except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, too many digits
            raise DescriptorError(f"cannot read symbolic real {text!r}: {exc}") from None
        if "-" in (m.group("op"), m.group("sign")):
            coeff = -coeff
        return cls(rat, coeff, m.group("sym"))

    # -- structure ------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.symbol is None

    def _square(self) -> tuple[Fraction, Fraction]:
        """(a, b) with sigma^2 = a + b*sigma; raises for a transcendental sigma."""
        square = symbol_spec(self.symbol).square
        if square is None:
            raise DescriptorError(
                f"{self.symbol!r} has no quadratic relation, so this product or "
                "quotient leaves the affine module")
        return square

    def _compatible(self, other: "SymbolicReal") -> Optional[str]:
        if self.symbol is None:
            return other.symbol
        if other.symbol is None or other.symbol == self.symbol:
            return self.symbol
        raise DescriptorError(
            f"mixed symbolic constants {self.symbol!r} and {other.symbol!r}")

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        other = as_symbolic(other)
        sym = self._compatible(other)
        return SymbolicReal(self.rational + other.rational,
                            self.coeff + other.coeff, sym)

    def __sub__(self, other):
        other = as_symbolic(other)
        sym = self._compatible(other)
        return SymbolicReal(self.rational - other.rational,
                            self.coeff - other.coeff, sym)

    def __neg__(self):
        return SymbolicReal(-self.rational, -self.coeff, self.symbol)

    def product_terms(self, other) -> tuple[Fraction, Fraction, Fraction]:
        """(k0, k1, k2) with self*other = k0 + k1 sigma + k2 sigma^2 over Q.
        A quadratic sigma^2 = a + b sigma is folded in, so k2 = 0; k2 != 0
        only for a transcendental sigma, where 1, sigma and sigma^2 are
        independent over Q."""
        other = as_symbolic(other)
        sym = self._compatible(other)
        k0 = self.rational * other.rational
        k1 = self.rational * other.coeff + self.coeff * other.rational
        k2 = self.coeff * other.coeff
        square = symbol_spec(sym).square if k2 else None
        if square is not None:
            k0, k1, k2 = k0 + k2 * square[0], k1 + k2 * square[1], Fraction(0)
        return k0, k1, k2

    def __mul__(self, other):
        other = as_symbolic(other)
        k0, k1, k2 = self.product_terms(other)
        if k2:
            self._square()  # raises: sigma^2 leaves the affine module
        return SymbolicReal(k0, k1, self._compatible(other))

    def __truediv__(self, other):
        other = as_symbolic(other)
        if other.symbol is None:
            if other.rational == 0:
                raise ZeroDivisionError("division of a symbolic real by zero")
            return SymbolicReal(self.rational / other.rational,
                                self.coeff / other.rational, self.symbol)
        return self * other.conjugate() / other.norm()

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return as_symbolic(other) - self

    def conjugate(self) -> "SymbolicReal":
        """Galois conjugate: sigma -> b - sigma, the other root of its relation."""
        if self.symbol is None:
            return self
        _, b = self._square()
        return SymbolicReal(self.rational + self.coeff * b, -self.coeff, self.symbol)

    def norm(self) -> Fraction:
        """x*conjugate(x) = x^2 + b*x*y - a*y^2 for x + y*sigma; 0 only at 0."""
        if self.symbol is None:
            return self.rational * self.rational
        a, b = self._square()
        x, y = self.rational, self.coeff
        return x * x + b * x * y - a * y * y

    def __eq__(self, other):
        """Exact equality with a SymbolicReal, a rational or a float (nan
        and the infinities equal nothing); any other operand, a string
        included, is left to Python, so == is False and does not raise."""
        if isinstance(other, float) and not math.isfinite(other):
            return False
        if isinstance(other, (float, numbers.Rational)):
            other = SymbolicReal(Fraction(other))
        elif not isinstance(other, SymbolicReal):
            return NotImplemented
        try:
            self._compatible(other)
        except DescriptorError:
            return False
        return self.rational == other.rational and self.coeff == other.coeff

    def __hash__(self):
        # a rational value hashes as its Fraction, so it agrees with == on
        # int, Fraction and float
        if self.symbol is None:
            return hash(self.rational)
        return hash((self.rational, self.coeff, self.symbol))

    # -- evaluation -----------------------------------------------------
    def mpf_value(self, prec: int = 128) -> mpf:
        old = mp.prec
        try:
            mp.prec = prec
            v = mpf(self.rational.numerator) / self.rational.denominator
            if self.symbol is not None:
                s = symbol_spec(self.symbol).evaluate()
                v += (mpf(self.coeff.numerator) / self.coeff.denominator) * s
            return v
        finally:
            mp.prec = old

    def fixed(self, bits: int) -> int:
        """Round-to-nearest fixed-point image at 2^bits scale: floor(x + 1/2)
        from the floor image at one more bit."""
        return (fixed_point_image(self, bits + 1) + 1) >> 1

    def __float__(self):
        return float(self.mpf_value(80))

    def __repr__(self):
        if self.symbol is None:
            return f"SymbolicReal({self.rational})"
        return f"SymbolicReal({self.rational} + {self.coeff}*{self.symbol})"

    def __str__(self):
        """In the grammar ``parse`` reads; a coefficient 1 goes, and -1 after q0."""
        if self.symbol is None:
            return str(self.rational)
        if not self.rational:
            return self.symbol if self.coeff == 1 else f"{self.coeff}*{self.symbol}"
        size = abs(self.coeff)
        term = self.symbol if size == 1 else f"{size}*{self.symbol}"
        return f"{self.rational}{'+' if self.coeff > 0 else '-'}{term}"


# the exponent of a numeral Fraction reads, such as 1e-3 or 2.5E+7
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def read_numeral(text: str) -> Fraction:
    """Fraction(text), except that an exponent beyond twice Python's int
    digit limit raises ValueError at once: Fraction would first expand
    10^exponent in full, which takes seconds past 10^6, and a value with a
    nonzero mantissa of fewer digits than the limit then has more digits
    than Python prints."""
    exp = _EXPONENT.search(text)
    if exp:
        limit = 2 * (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits)
        digits = exp.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"numeral exponent beyond {limit} in {text!r}")
    return Fraction(text)


def as_symbolic(value) -> SymbolicReal:
    """A SymbolicReal as is, a string through ``SymbolicReal.parse``, any
    other number exactly through ``Fraction`` (a float keeps every bit)."""
    if isinstance(value, SymbolicReal):
        return value
    if isinstance(value, str):
        return SymbolicReal.parse(value)
    return SymbolicReal(Fraction(value))


def ratio_as_rational(num: SymbolicReal, den: SymbolicReal) -> Optional[Fraction]:
    """Return num/den as an exact rational, or None if it is irrational.

    Correct whenever {1, sigma} is linearly independent over Q, which holds
    for every constant in the vocabulary. ``den`` must be nonzero.
    """
    num._compatible(den)
    if den.rational == 0 and den.coeff == 0:
        raise ZeroDivisionError("ratio_as_rational with zero denominator")
    if den.coeff != 0:
        t = num.coeff / den.coeff
        if num.rational == t * den.rational:
            return t
        return None
    t = num.rational / den.rational
    if num.coeff == 0:
        return t
    return None
