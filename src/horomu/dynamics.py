"""Discrete horocycle dynamics on the modular surface.

A point of X = SL2(Z)\\SL2(R) is carried as a 2x2 matrix xi with exact
symbolic entries; the time-n point is evaluated in closed form as the
Moebius image xi(n + i) together with a frame angle, then reduced into
the standard fundamental domain |x| <= 1/2, |z| >= 1.

Numerics: the unreduced imaginary part decays like 1/(c n)^2, so the
orbit evaluator works in fixed-point big-integer arithmetic at
2*log2(n) + 64 bits by default. Consecutive orbit points are a bounded
hyperbolic step apart, so reductions are warm-started from the previous
reducing matrix and cost O(1) amortized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .arith import MultiplicativeTable
from .criterion import BoundedSequence
from .errors import (ConvergenceError, DescriptorError, PrecisionError,
                     ValidationError)
from .exactreal import SymbolicReal, ratio_as_rational

_MAX_REDUCE_STEPS = 20000


def default_precision_bits(n_max: int) -> int:
    """Default working precision for orbit indices up to n_max."""
    return 2 * max(1, math.ceil(math.log2(max(n_max, 2)))) + 64


# ---------------------------------------------------------------------------
# fundamental-domain reduction in fixed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalDomainCoords:
    """Reduced coordinates x + iy (and optionally a frame angle theta).

    ``gamma`` is the integer matrix applied to reach the domain, with the
    sign normalized so its bottom row is lexicographically positive.
    """

    x: float
    y: float
    theta: Optional[float]
    gamma: tuple[tuple[int, int], tuple[int, int]]

    @property
    def point(self) -> complex:
        return complex(self.x, self.y)

    def gamma_det(self) -> int:
        (a, b), (c, d) = self.gamma
        return a * d - b * c


def _normalize_gamma(p, q, r, s):
    if r < 0 or (r == 0 and s < 0):
        return -p, -q, -r, -s
    return p, q, r, s


def _reduce_fixed(x: int, y: int, bits: int):
    """Gauss reduction of the fixed-point point (x + iy)/2^bits.

    Returns reduced fixed-point coordinates and the integer matrix applied.
    Convention: x in [-1/2, 1/2); on the unit circle the representative
    with x <= 0 is kept.
    """
    one = 1 << bits
    half = one >> 1
    p, q, r, s = 1, 0, 0, 1
    if y <= 0:
        raise PrecisionError("imaginary part fell below the working-precision floor")
    for _ in range(_MAX_REDUCE_STEPS):
        m = (x + half) >> bits  # floor(x + 1/2): shifts x into [-1/2, 1/2)
        if m:
            x -= m << bits
            p -= m * r
            q -= m * s
        norm = (x * x + y * y) >> bits
        if norm < one:
            if norm <= 0:
                raise PrecisionError("point collapsed at the working precision")
            x = (-x << bits) // norm
            y = (y << bits) // norm
            p, q, r, s = -r, -s, p, q
        else:
            if norm == one and x > 0:
                x = -x
                p, q, r, s = -r, -s, p, q
            return x, y, (p, q, r, s)
    raise PrecisionError("fundamental-domain reduction did not terminate")


def reduce(z, precision_bits: int = 128) -> FundamentalDomainCoords:
    """Reduce an upper-half-plane point into the fundamental domain.

    Accepts a complex number or an (x, y) pair; y must be positive and
    above the fixed-point resolution 2^-precision_bits.
    """
    if isinstance(z, complex):
        xr, yr = z.real, z.imag
    else:
        xr, yr = z
    if not yr > 0:
        raise ValidationError(f"need Im z > 0, got {yr}")
    one = 1 << precision_bits
    x = _to_fixed(xr, precision_bits)
    y = _to_fixed(yr, precision_bits)
    if y <= 0:
        raise PrecisionError(
            f"Im z = {yr} is below the working-precision floor 2^-{precision_bits}")
    x, y, gamma = _reduce_fixed(x, y, precision_bits)
    p, q, r, s = _normalize_gamma(*gamma)
    return FundamentalDomainCoords(x / one, y / one, None, ((p, q), (r, s)))


def _to_fixed(v, bits: int) -> int:
    if isinstance(v, Fraction):
        return (v.numerator << bits) // v.denominator
    f = Fraction(v)
    return (f.numerator << bits) // f.denominator


# ---------------------------------------------------------------------------
# modular points with exact symbolic entries
# ---------------------------------------------------------------------------

class ModularPoint:
    """A coset representative xi in SL2(Z)\\SL2(R).

    Entries are exact scalars q0 + q1*sigma sharing one symbolic constant,
    so the cusp direction xi(inf) = a/c is decided symbolically and the
    determinant is checked exactly whenever it stays in the module.
    """

    def __init__(self, a, b, c, d):
        self.entries = tuple(_sym(v) for v in (a, b, c, d))
        syms = {e.symbol for e in self.entries if e.symbol is not None}
        if len(syms) > 1:
            raise DescriptorError(f"entries mix symbolic constants {sorted(syms)}")
        self._check_det()

    def _check_det(self):
        a, b, c, d = self.entries
        try:
            det = a * d - b * c
            if det != SymbolicReal.rat(1):
                raise ValidationError(f"det(xi) = {det} != 1")
        except DescriptorError:
            # product leaves the affine module: verify numerically instead
            prec = 256
            det = (a.mpf_value(prec) * d.mpf_value(prec)
                   - b.mpf_value(prec) * c.mpf_value(prec))
            if abs(det - 1) > 1e-12:
                raise ValidationError(f"det(xi) = {det} not within 1e-12 of 1")

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls) -> "ModularPoint":
        return cls(1, 0, 0, 1)

    @classmethod
    def lower(cls, t) -> "ModularPoint":
        """(1, 0; t, 1): cusp direction 1/t."""
        return cls(1, 0, _sym(t), 1)

    @classmethod
    def upper(cls, t) -> "ModularPoint":
        """(1, t; 0, 1): cusp direction infinity."""
        return cls(1, _sym(t), 0, 1)

    @classmethod
    def from_rationals(cls, a, b, c, d) -> "ModularPoint":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    # -- algebra ----------------------------------------------------------
    def times_u(self, m: int) -> "ModularPoint":
        """Right translation by the unipotent step, m times: columns shear."""
        a, b, c, d = self.entries
        return ModularPoint(a, b + m * a, c, d + m * c)

    def is_integral(self) -> bool:
        return all(e.is_rational and e.rational.denominator == 1
                   for e in self.entries)

    # -- cusp direction ---------------------------------------------------
    def cusp_direction(self):
        """xi(inf) = a/c as 'infinity', an exact Fraction, or a symbolic string."""
        a, _, c, _ = self.entries
        if c == SymbolicReal.rat(0):
            return "infinity"
        ratio = ratio_as_rational(a, c)
        if ratio is not None:
            return ratio
        return f"({a})/({c})"

    def entries_fixed(self, bits: int) -> tuple[int, int, int, int]:
        return tuple(e.fixed(bits) for e in self.entries)

    def __repr__(self):
        a, b, c, d = self.entries
        return f"ModularPoint([{a}, {b}; {c}, {d}])"


def _sym(v) -> SymbolicReal:
    if isinstance(v, SymbolicReal):
        return v
    if isinstance(v, str):
        return SymbolicReal.parse(v)
    return SymbolicReal.rat(v)


@dataclass(frozen=True)
class Genericity:
    generic: bool
    cusp_direction: object  # "infinity" | Fraction | symbolic string

    @property
    def label(self) -> str:
        if self.generic:
            return "generic"
        return f"non-generic({self.cusp_direction})"


def genericity(xi: ModularPoint) -> Genericity:
    """Equidistribution dichotomy: generic iff the cusp direction is irrational.

    Decided purely symbolically; floats are never consulted.
    """
    cd = xi.cusp_direction()
    return Genericity(not (cd == "infinity" or isinstance(cd, Fraction)), cd)


# ---------------------------------------------------------------------------
# orbit evaluation
# ---------------------------------------------------------------------------

class OrbitEvaluator:
    """Closed-form evaluation of reduced coordinates of xi * u^m.

    Maintains w = gamma * xi * u^m in fixed point across calls with
    ascending m; gamma absorbs each reduction so successive points need
    only a couple of reduction steps.
    """

    def __init__(self, xi: ModularPoint, n_max: int,
                 precision_bits: Optional[int] = None):
        self.xi = xi
        self.bits = precision_bits or default_precision_bits(n_max)
        self.one = 1 << self.bits
        ea, eb, ec, ed = xi.entries_fixed(self.bits)
        self._w = [ea, eb, ec, ed]
        self._g = (1, 0, 0, 1)  # accumulated reducing matrix
        self._m = 0

    def coords(self, m: int, need_theta: bool = True) -> FundamentalDomainCoords:
        """Reduced coordinates of xi*u^m; m must not decrease between calls."""
        if m < self._m:
            raise ValidationError("OrbitEvaluator requires nondecreasing indices")
        one = self.one
        bits = self.bits
        wa, wb, wc, wd = self._w
        dm = m - self._m
        if dm:
            wb += dm * wa
            wd += dm * wc
        den = (wc * wc + wd * wd) >> bits
        if den <= 0:
            raise PrecisionError("orbit point collapsed at the working precision")
        x = (((wa * wc + wb * wd) >> bits) << bits) // den
        y = (one << bits) // den  # det(w) = 1 exactly
        x, y, delta = _reduce_fixed(x, y, bits)
        p, q, r, s = delta
        if (p, q, r, s) != (1, 0, 0, 1):
            wa, wb, wc, wd = (p * wa + q * wc, p * wb + q * wd,
                              r * wa + s * wc, r * wb + s * wd)
            gp, gq, gr, gs = self._g
            self._g = (p * gp + q * gr, p * gq + q * gs,
                       r * gp + s * gr, r * gq + s * gs)
        self._w = [wa, wb, wc, wd]
        self._m = m
        gp, gq, gr, gs = _normalize_gamma(*self._g)
        theta = None
        if need_theta:
            sign = 1 if (gp, gq, gr, gs) == self._g else -1
            theta = math.atan2(sign * wc / one, sign * wd / one) % (2 * math.pi)
        return FundamentalDomainCoords(x / one, y / one, theta,
                                       ((gp, gq), (gr, gs)))

    def run(self, indices: Iterable[int], need_theta: bool = False):
        """Coordinate arrays over ascending indices."""
        idx = list(indices)
        xs = np.empty(len(idx))
        ys = np.empty(len(idx))
        ts = np.empty(len(idx)) if need_theta else None
        for k, m in enumerate(idx):
            c = self.coords(m, need_theta)
            xs[k] = c.x
            ys[k] = c.y
            if need_theta:
                ts[k] = c.theta
        if ts is None:
            ts = np.zeros(len(idx))
        return xs, ys, ts


def horocycle_point(xi: ModularPoint, n: int,
                    precision_bits: Optional[int] = None,
                    need_theta: bool = True) -> FundamentalDomainCoords:
    """Reduced coordinates of the time-n point xi * u^n (closed form per n).

    The reducing matrix is recovered against the unreduced point, so the
    returned gamma satisfies gamma(xi*u^n (i)) = x + iy.
    """
    if n < 0:
        raise ValidationError(f"need n >= 0, got {n}")
    bits = precision_bits or default_precision_bits(max(n, 2))
    one = 1 << bits
    ea, eb, ec, ed = xi.entries_fixed(bits)
    wb = eb + n * ea
    wd = ed + n * ec
    wa, wc = ea, ec
    den = (wc * wc + wd * wd) >> bits
    if den <= 0:
        raise PrecisionError(
            f"orbit point at n={n} needs more than {bits} working bits")
    x = (((wa * wc + wb * wd) >> bits) << bits) // den
    y = (one << bits) // den
    x, y, gamma = _reduce_fixed(x, y, bits)
    p, q, r, s = _normalize_gamma(*gamma)
    theta = None
    if need_theta:
        rc = (p * wa + q * wc, p * wb + q * wd, r * wa + s * wc, r * wb + s * wd)
        theta = math.atan2(rc[2] / one, rc[3] / one) % (2 * math.pi)
    return FundamentalDomainCoords(x / one, y / one, theta, ((p, q), (r, s)))


# ---------------------------------------------------------------------------
# observables and Haar means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observable:
    """A continuous test function on the compactified modular surface.

    ``kind`` is 'k_invariant' (function of x, y) or 'frame' (of x, y,
    theta). ``cusp_limit`` is the declared value as y -> infinity; the
    quadrature uses it to integrate the cusp tail analytically.
    """

    label: str
    kind: str
    fn: Callable
    cusp_limit: float
    exact_mean: Optional[float] = None
    bound: float = 1.0

    def eval(self, x, y, theta=None):
        if self.kind == "k_invariant":
            return self.fn(np.asarray(x, float), np.asarray(y, float))
        if theta is None:
            raise ValidationError(f"{self.label} is frame-dependent; theta required")
        return self.fn(np.asarray(x, float), np.asarray(y, float),
                       np.asarray(theta, float))

    def shifted(self, c: float) -> "Observable":
        fn = lambda *a, _f=self.fn, _c=c: _f(*a) - _c
        return Observable(f"{self.label}-{c:.6g}", self.kind, fn,
                          self.cusp_limit - c, None, self.bound + abs(c))


def const_observable(c: float = 1.0) -> Observable:
    return Observable(f"const:{c}", "k_invariant",
                      lambda x, y: np.full_like(np.asarray(y, float), c),
                      cusp_limit=c, exact_mean=c, bound=abs(c))


def bump_observable(y0: float = 2.0, width: float = 0.5) -> Observable:
    """Gaussian bump in log-height, vanishing at the cusp."""
    if y0 <= 0 or width <= 0:
        raise ValidationError("bump needs y0 > 0 and width > 0")
    return Observable(
        f"bump:y0={y0:g},width={width:g}", "k_invariant",
        lambda x, y: np.exp(-((np.log(y / y0) / width) ** 2)),
        cusp_limit=0.0)


def step_observable(y0: float = 2.0, width: float = 0.25) -> Observable:
    """Smoothed indicator of {y > y0}; tends to 1 at the cusp."""
    if y0 <= 0 or width <= 0:
        raise ValidationError("step needs y0 > 0 and width > 0")
    return Observable(
        f"step:y0={y0:g},width={width:g}", "k_invariant",
        lambda x, y: 1.0 / (1.0 + np.exp(-(y - y0) / width)),
        cusp_limit=1.0)


def windy_observable(y0: float = 2.0, width: float = 0.5) -> Observable:
    """Frame-dependent bump weighted by cos(theta); Haar mean zero."""
    return Observable(
        f"windy:y0={y0:g},width={width:g}", "frame",
        lambda x, y, t: np.exp(-((np.log(y / y0) / width) ** 2)) * np.cos(t),
        cusp_limit=0.0, exact_mean=0.0)


OBSERVABLE_FACTORIES = {
    "const": const_observable,
    "bump": bump_observable,
    "step": step_observable,
    "windy": windy_observable,
}


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor midpoint grid in (x, 1/y, theta) on the truncated domain
    y <= y_max; k-invariant observables use one theta node."""

    y_max: float = 1000.0
    nx: int = 2000
    nv: int = 2000
    ntheta: int = 64

    def __post_init__(self):
        if self.y_max <= 2 or self.nx < 2 or self.nv < 2 or self.ntheta < 1:
            raise ValidationError(f"degenerate quadrature spec {self}")


def domain_mass(quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Unnormalized hyperbolic area of the fundamental domain on this grid.

    The exact value is pi/3; the quadrature error is the midpoint error of
    the one-dimensional circle-boundary integral.
    """
    xs = (np.arange(quad.nx) + 0.5) / quad.nx - 0.5
    vmax = 1.0 / np.sqrt(1.0 - xs * xs)
    vmin = 1.0 / quad.y_max
    mass = float(np.sum(vmax - vmin)) / quad.nx
    return mass + 1.0 / quad.y_max


def _quad_eval(f: Observable, quad: QuadratureSpec) -> float:
    """Unnormalized integral of f over the grid of ``domain_mass``.

    Each x-column is one ``f.eval`` call on an (nv, ntheta) grid, with a
    single theta node for k-invariant observables; the column value is
    the angular mean. The tail above y_max contributes cusp_limit/y_max.
    """
    xs = (np.arange(quad.nx) + 0.5) / quad.nx - 0.5
    vmin = 1.0 / quad.y_max
    nt = quad.ntheta if f.kind == "frame" else 1
    thetas = (np.arange(nt) + 0.5) * (2 * math.pi / nt)
    integral = 0.0
    for x in xs:
        dv = (1.0 / math.sqrt(1.0 - x * x) - vmin) / quad.nv
        ys = 1.0 / (vmin + (np.arange(quad.nv) + 0.5) * dv)[:, None]
        vals = np.real(f.eval(np.full_like(ys, x), ys, thetas))
        integral += float(np.sum(vals)) / nt * dv / quad.nx
    return integral + f.cusp_limit / quad.y_max


def _check_cusp_decay(f: Observable, quad: QuadratureSpec, tol: float = 1e-3):
    ys = np.array([quad.y_max, 2 * quad.y_max, 10 * quad.y_max, 1e3 * quad.y_max])
    xs = np.zeros_like(ys)
    vals = 0.5 * (f.eval(xs, ys, np.zeros_like(ys))
                  + f.eval(xs, ys, np.full_like(ys, math.pi)))
    dev = float(np.max(np.abs(np.asarray(vals, float) - f.cusp_limit)))
    if dev > tol:
        raise ConvergenceError(
            f"{f.label}: deviates from its cusp limit by {dev:.3g} beyond "
            f"y_max={quad.y_max}; increase y_max or fix cusp_limit")


def haar_mean(f: Observable, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Mean of f against the normalized hyperbolic volume of the surface:
    its integral on the quadrature grid over the grid's ``domain_mass``."""
    _check_cusp_decay(f, quad)
    return _quad_eval(f, quad) / domain_mass(quad)


def split_observable(f: Observable,
                     quad: QuadratureSpec = QuadratureSpec()):
    """f = f1 + c with c the Haar mean and f1 mean-zero (within quadrature)."""
    c = haar_mean(f, quad)
    return f.shifted(c), c


# ---------------------------------------------------------------------------
# Birkhoff averages, pair correlations, orthogonality sums
# ---------------------------------------------------------------------------

def _orbit_values(f: Observable, xi: ModularPoint, indices,
                  precision_bits: Optional[int]) -> np.ndarray:
    idx = list(indices)
    n_max = max(idx) if idx else 2
    ev = OrbitEvaluator(xi, n_max, precision_bits)
    xs, ys, ts = ev.run(idx, need_theta=(f.kind == "frame"))
    vals = f.eval(xs, ys, ts)
    return np.asarray(vals, dtype=float)


def birkhoff_average(f: Observable, xi: ModularPoint, N: int,
                     precision_bits: Optional[int] = None) -> float:
    """(1/N) sum_{n=1..N} f(xi u^n), exactly-rounded accumulation."""
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    vals = _orbit_values(f, xi, range(1, N + 1), precision_bits)
    return math.fsum(vals) / N


@dataclass(frozen=True)
class CorrelationEstimate:
    p: int
    q: int
    n: int
    value: float
    target: float
    gap: float

    def as_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "n": self.n, "value": repr(self.value),
                "target": repr(self.target), "gap": repr(self.gap)}


def pair_correlation(f: Observable, xi: ModularPoint, p: int, q: int, N: int,
                     precision_bits: Optional[int] = None,
                     target: Optional[float] = None,
                     quad: QuadratureSpec = QuadratureSpec()) -> CorrelationEstimate:
    """(1/N) sum_{n<=N} f(xi u^(pn)) f(xi u^(qn)) against (Haar mean)^2."""
    if p == q or p < 1 or q < 1:
        raise ValidationError(f"need distinct positive speeds, got {p}, {q}")
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    vp = _orbit_values(f, xi, range(p, p * N + 1, p), precision_bits)
    vq = _orbit_values(f, xi, range(q, q * N + 1, q), precision_bits)
    value = math.fsum(vp * vq) / N
    if target is None:
        mean = f.exact_mean if f.exact_mean is not None else haar_mean(f, quad)
        target = mean * mean
    return CorrelationEstimate(p, q, N, value, target, value - target)


@dataclass(frozen=True)
class DisjointnessRow:
    n: int
    average: float           # (1/N) sum nu(n) f(T^n xi)
    centered_average: float  # same with f replaced by f - c
    nu_mean: float           # (1/N) sum nu(n)

    def as_dict(self) -> dict:
        return {"n": self.n, "average": repr(self.average),
                "centered_average": repr(self.centered_average),
                "nu_mean": repr(self.nu_mean)}


@dataclass(frozen=True)
class DisjointnessReport:
    xi_label: str
    f_label: str
    nu_label: str
    haar_constant: float
    rows: list[DisjointnessRow]

    def row(self, n: int) -> DisjointnessRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)

    def as_dict(self) -> dict:
        return {"point": self.xi_label, "observable": self.f_label,
                "nu": self.nu_label, "haar_constant": repr(self.haar_constant),
                "rows": [r.as_dict() for r in self.rows]}


def mobius_disjointness_sum(xi: ModularPoint, f: Observable, N: int,
                            nu: MultiplicativeTable,
                            ladder: Optional[list[int]] = None,
                            precision_bits: Optional[int] = None,
                            quad: QuadratureSpec = QuadratureSpec()) -> DisjointnessReport:
    """Weighted orbit averages (1/N) sum nu(n) f(T^n xi) along a ladder of N.

    Each row also reports the mean-zero part: with f = f1 + c the average
    splits as (1/N) sum nu f1 + c * (1/N) sum nu.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    if nu.n_max < N:
        raise ValidationError(f"nu table covers [1,{nu.n_max}], need {N}")
    if ladder is None:
        ladder = sorted({10 ** k for k in range(2, 1 + math.floor(math.log10(N)))
                         if 10 ** k <= N} | {N})
    else:
        ladder = sorted(set(int(v) for v in ladder) | {N})
        if any(v < 1 or v > N for v in ladder):
            raise ValidationError(f"ladder values must lie in [1, N]: {ladder}")
    c = f.exact_mean if f.exact_mean is not None else haar_mean(f, quad)
    vals = _orbit_values(f, xi, range(1, N + 1), precision_bits)
    nu_arr = np.real(nu.as_complex()[1:N + 1])
    rows = []
    for nk in ladder:
        total = math.fsum(nu_arr[:nk] * vals[:nk]) / nk
        nu_mean = math.fsum(nu_arr[:nk]) / nk
        rows.append(DisjointnessRow(nk, total, total - c * nu_mean, nu_mean))
    return DisjointnessReport(repr(xi), f.label, nu.label, c, rows)


def orbit_sequence(xi: ModularPoint, f: Observable, horizon: int,
                   precision_bits: Optional[int] = None) -> BoundedSequence:
    """Bounded sequence F(n) = f(xi u^n) for the bilinear engine; needs |f| <= 1."""
    vals = np.zeros(horizon + 1, dtype=np.complex128)
    vals[1:] = _orbit_values(f, xi, range(1, horizon + 1), precision_bits)
    return BoundedSequence(vals, f"horocycle:{f.label}")
