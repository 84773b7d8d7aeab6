"""Discrete horocycle dynamics on the modular surface.

A point of X = SL2(Z)\\SL2(R) is carried as a 2x2 matrix xi with exact
symbolic entries; the time-n point is evaluated in closed form as the
Moebius image xi(n + i) together with a frame angle, then reduced into
the standard fundamental domain |x| <= 1/2, |z| >= 1.

Numerics: the unreduced imaginary part decays like 1/(c n)^2, so the
exact path (``OrbitEvaluator.coords``, and ``horocycle_point``) works in
fixed-point big-integer arithmetic at 2*log2(n) + 64 bits by default.
Consecutive orbit points are a bounded hyperbolic step apart, so
reductions are warm-started from the previous reducing matrix and cost
O(1) amortized. ``OrbitEvaluator.chunks`` evaluates arrays of at most
_CHUNK points in blocks (``run`` joins them):

* anchors: every K indices one exact point gives the reduced matrix
  w = gamma * xi * u^m0, whose entries are O(1) (O(sqrt y) in the cusp),
  split into float64 hi + lo parts with hi short enough that integer
  multiples of it are exact;
* blocks: the points w * u^t, t = m - m0, are Gauss-reduced in float64 by
  masked row operations on the coordinate rows (A, B) and (C, D) alone;
  the integer reducing matrix delta is read back from the reduced rows R
  as round(R * (w * u^t)^-1), since det(w * u^t) = 1, and kept only where
  it is an exact det-1 matrix. delta * w * u^t is then recomputed from
  hi + lo, and theta takes its sign from delta * gamma as the exact path
  does;
* error estimate: a block point is within about
  eps * (1 + t) * (1 + |A| + |C|) * y of the exact path (times a safety
  factor, plus the anchor's own error carried along), so the error grows
  only in the cusp. Every point whose estimate exceeds 1e-9, or that lies
  within it of the domain's boundary, or whose delta is not kept, is
  recomputed on the exact path: these are the cusp excursions, about
  t / 2e5 of the points;
* precision guard: each exact point (anchors and fallbacks) is compared
  with the closed form at 64 more bits, through one exact integer product
  per point (``_state_error``), and a first-order bound on its
  coordinates above 1e-9 raises ``PrecisionError``.

Orbit averages (Birkhoff, pair correlations, the disjointness ladder) are
exactly rounded: each is the exact sum of its float64 terms, rounded once
(``math.fsum``'s value wherever its partial sums stay finite), then divided
by N; a nan or an infinity among the terms raises DomainError, so an
observable that yields one fails instead of averaging to nan. They stream:
each chunk of the evaluator, new arrays of at most _CHUNK points, goes
through ``f.eval`` into an ``exactreal.ExactSum``, one exact integer read
at every ladder rung, so no array of length N is built and memory is
O(_CHUNK) at any N. At N = 1e6 on ``point:lower:t=inv_e`` the tracemalloc
peak is 1.7 MiB for a windy Birkhoff average, 1.8 MiB for the disjointness
ladder and 2.0 MiB for a pair correlation, against 40, 40 and 16 MB when the
whole orbit was held. ``orbit_sequence`` still returns all N values.
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
from .exactreal import (ExactSum, SymbolicReal, as_symbolic, fixed_point_image,
                        ratio_as_rational)

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
    xr, yr = (z.real, z.imag) if isinstance(z, complex) else z
    if not yr > 0:
        raise ValidationError(f"need Im z > 0, got {yr}")
    x, y = fixed_point_image(xr, precision_bits), fixed_point_image(yr, precision_bits)
    if y <= 0:
        raise PrecisionError(
            f"Im z = {yr} is below the working-precision floor 2^-{precision_bits}")
    x, y, gamma = _reduce_fixed(x, y, precision_bits)
    p, q, r, s = _normalize_gamma(*gamma)
    one = 1 << precision_bits
    return FundamentalDomainCoords(x / one, y / one, None, ((p, q), (r, s)))


# ---------------------------------------------------------------------------
# modular points with exact symbolic entries
# ---------------------------------------------------------------------------

class ModularPoint:
    """A coset representative xi in SL2(Z)\\SL2(R).

    Entries are exact scalars q0 + q1*sigma sharing one symbolic constant,
    so the cusp direction xi(inf) = a/c is decided symbolically and the
    determinant is checked exactly.
    """

    def __init__(self, a, b, c, d):
        self.entries = tuple(as_symbolic(v) for v in (a, b, c, d))
        syms = {e.symbol for e in self.entries if e.symbol is not None}
        if len(syms) > 1:
            raise DescriptorError(f"entries mix symbolic constants {sorted(syms)}")
        self._check_det(*syms)

    def _check_det(self, symbol: Optional[str] = None):
        """det = a d - b c = k0 + k1 sigma + k2 sigma^2 over Q, from
        ``SymbolicReal.product_terms``: exactly 1 when (k0, k1, k2) = (1, 0, 0)."""
        a, b, c, d = self.entries
        k0, k1, k2 = (x - y for x, y in zip(a.product_terms(d), b.product_terms(c)))
        if (k0, k1, k2) != (1, 0, 0):
            det = str(SymbolicReal(k0, k1, symbol)) + (f" + ({k2})*{symbol}^2" if k2 else "")
            raise ValidationError(f"det(xi) = {det} != 1")

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls) -> "ModularPoint":
        return cls(1, 0, 0, 1)

    @classmethod
    def lower(cls, t) -> "ModularPoint":
        """(1, 0; t, 1): cusp direction 1/t."""
        return cls(1, 0, t, 1)

    @classmethod
    def upper(cls, t) -> "ModularPoint":
        """(1, t; 0, 1): cusp direction infinity."""
        return cls(1, t, 0, 1)

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

# Blocked evaluation (module docstring). A block point at t = m - m0 is
# within about eps * (1 + t) * (1 + |A| + |C|) * y of the exact path, (A, C)
# the anchor's first column; the worst measured ratio of error to that
# product is 0.91 (4.8e5 points: four points at strides 1, 2, 3 and 7).
_TOLERANCE = 1e-9  # on |dz| = |d(x + iy)| and on theta
_ERROR_SCALE = 8.0
_EPS = 2.0 ** -52
_CHECK_BITS = 64  # exact points are checked against this many more bits
# Indices per exact anchor. A point falls back once y > TOL / (SCALE * eps *
# (1 + t) * (1 + |A| + |C|)) ~ 2e5 / t, and Haar measure (P(y > Y) ~ 1/Y)
# puts about t / 2e5 of the points there: 0.05% at stride 1. Each anchor
# costs two exact evaluations, 2 / K per point.
_ANCHOR_EVERY = 256
_CHUNK = 32 * _ANCHOR_EVERY  # points per numpy pass: temporaries stay O(_CHUNK)
_SPLIT_BITS = 33  # anchor = hi + lo with hi in 33 bits, so delta * hi is exact
_MAX_DELTA = 2.0 ** (53 - _SPLIT_BITS)


def _split(v: int, one: int) -> tuple[float, float]:
    """v / one as hi + lo, hi with at most _SPLIT_BITS significant bits."""
    shift = max(v.bit_length() - _SPLIT_BITS, 0)
    hi = (v >> shift) << shift
    return hi / one, (v - hi) / one


def _check_delta(xi: ModularPoint, bits: int) -> tuple[int, int, int, int]:
    """Delta = (xi_b << _CHECK_BITS) - xi_(b + _CHECK_BITS), entrywise, with
    xi_k the entries of xi rounded to k fixed-point bits (b = ``bits``)."""
    return tuple((v << _CHECK_BITS) - u for v, u in
                 zip(xi.entries_fixed(bits), xi.entries_fixed(bits + _CHECK_BITS)))


def _state_error(state, delta, ref_one: int) -> tuple[float, float]:
    """Max entry error (in units of 1) of the top and of the bottom row of the
    exact reduced matrix w in ``state`` against the same point at
    _CHECK_BITS more bits, whose unit is ``ref_one``.

    w = g * xi_b * u^m holds exactly in integers, so mapped into w's
    representative the point at more bits is g * xi_(b+64) * u^m, and the
    error is the product g * delta * u^m with ``delta`` from _check_delta."""
    m, _, (p, q, r, s) = state
    da, db, dc, dd = delta
    db, dd = db + m * da, dd + m * dc
    top = max(abs(p * da + q * dc), abs(p * db + q * dd))
    bottom = max(abs(r * da + s * dc), abs(r * db + s * dd))
    return top / ref_one, bottom / ref_one


def _coordinate_bound(y, top, bottom):
    """First-order bound on |dz| and on theta of the reduced point z = x + iy
    of w = (A, B; C, D) when its rows move by at most top and bottom entrywise:
    dz = (dA i + dB - z (dC i + dD)) / (C i + D) with |C i + D| = y^(-1/2) and
    |z| <= 1/2 + y."""
    return 2.0 * np.sqrt(y) * (top + (0.5 + y) * bottom)


def _reduced_delta(a, b, c, d):
    """The integer matrix delta = (p, q; r, s) that Gauss-reduces the rows
    (a, b) and (c, d) of W = w * u^t in float64, as four arrays.

    The masked iterations update only the coordinate rows, carrying each
    row's squared norm through the swaps, and so make the decisions that
    tracking delta alongside would make. delta is then read back from the
    reduced rows R = delta * W as round(R * W^-1), W^-1 = (d, -b; -c, a)
    since det W = 1; a caller keeps a point only where p s - q r == 1."""
    ra, rb, rc, rd = a, b, c, d
    den = c * c + d * d
    for _ in range(_MAX_REDUCE_STEPS):
        k = np.floor((ra * rc + rb * rd) / den + 0.5)
        ra, rb = ra - k * rc, rb - k * rd
        norm = ra * ra + rb * rb
        flip = norm < den
        if not flip.any():
            break
        ra, rb, rc, rd = (np.where(flip, -rc, ra), np.where(flip, -rd, rb),
                          np.where(flip, ra, rc), np.where(flip, rb, rd))
        den = np.where(flip, norm, den)
    else:
        raise PrecisionError("fundamental-domain reduction did not terminate")
    return (np.rint(ra * d - rb * c), np.rint(rb * a - ra * b),
            np.rint(rc * d - rd * c), np.rint(rd * a - rc * b))


class OrbitEvaluator:
    """Reduced coordinates of xi * u^m for nondecreasing m.

    ``coords`` is the exact path: it maintains w = gamma * xi * u^m in fixed
    point, and gamma absorbs each reduction so successive points need only
    a couple of reduction steps. ``chunks`` evaluates arrays of indices in
    float64 blocks from exact anchors, with an exact fallback (module
    docstring); ``run`` joins its chunks.
    """

    def __init__(self, xi: ModularPoint, n_max: int,
                 precision_bits: Optional[int] = None):
        self.xi = xi
        if precision_bits is None:
            precision_bits = default_precision_bits(n_max)
        elif precision_bits < 1:
            raise ValidationError(f"precision bits must be >= 1, got {precision_bits}")
        self.bits = precision_bits
        self.one = 1 << self.bits
        # exact warm start (m, w, gamma); _m is the largest index requested
        self._state = (0, xi.entries_fixed(self.bits), (1, 0, 0, 1))
        self._m = 0

    def coords(self, m: int, need_theta: bool = True) -> FundamentalDomainCoords:
        """Exact reduced coordinates of xi*u^m; m must not decrease between calls."""
        if m < self._m:
            raise ValidationError("OrbitEvaluator requires nondecreasing indices")
        self._m = m
        self._state = self._step(self._state, m)
        return self._point(self._state, need_theta)

    def _step(self, state, m: int):
        """The exact state (m, w, gamma) of xi*u^m, warm-started from state
        (m0 <= m, w, gamma)."""
        bits = self.bits
        m0, (wa, wb, wc, wd), g = state
        dm = m - m0
        if dm:
            wb += dm * wa
            wd += dm * wc
        den = (wc * wc + wd * wd) >> bits
        if den <= 0:
            raise PrecisionError(
                f"orbit point at n={m} needs more than {bits} working bits")
        x = (((wa * wc + wb * wd) >> bits) << bits) // den
        y = (self.one << bits) // den  # det(w) = 1 up to the rounding of xi
        p, q, r, s = _reduce_fixed(x, y, bits)[2]
        if (p, q, r, s) != (1, 0, 0, 1):
            wa, wb, wc, wd = (p * wa + q * wc, p * wb + q * wd,
                              r * wa + s * wc, r * wb + s * wd)
            gp, gq, gr, gs = g
            g = (p * gp + q * gr, p * gq + q * gs, r * gp + s * gr, r * gq + s * gs)
        return m, (wa, wb, wc, wd), g

    def _point(self, state, need_theta: bool) -> FundamentalDomainCoords:
        """The coordinates of an exact state."""
        _, (wa, wb, wc, wd), g = state
        gamma = _normalize_gamma(*g)
        theta = None
        if need_theta:
            sign = 1 if gamma == g else -1
            theta = math.atan2(sign * wc / self.one, sign * wd / self.one) % (2 * math.pi)
        # the Moebius image of the reduced w, rounded once: the fixed-point
        # point loses relative precision wherever the reduction passes near 0
        den = wc * wc + wd * wd
        x, y = (wa * wc + wb * wd) / den, (wa * wd - wb * wc) / den
        gp, gq, gr, gs = gamma
        if x == 0.5:  # keep x in [-1/2, 1/2): T^-1 leaves the bottom row as is
            x, gp, gq = -0.5, gp - gr, gq - gs
        return FundamentalDomainCoords(x, y, theta, ((gp, gq), (gr, gs)))

    def chunks(self, indices: range | np.ndarray, need_theta: bool = False):
        """Yield (offset, (xs, ys, thetas)) for each run of at most _CHUNK
        consecutive indices, offset the position of its first, over a range
        or an int64 array of nondecreasing indices.

        Each chunk's arrays are new; thetas is zero unless ``need_theta``.
        Raises ``ValidationError`` before a chunk whose indices decrease,
        within it or against the last index evaluated, and
        ``PrecisionError`` when an exactly evaluated point may be more than
        _TOLERANCE off the closed form at _CHECK_BITS more bits.
        """
        delta = _check_delta(self.xi, self.bits)
        for offset in range(0, len(indices), _CHUNK):
            idx = indices[offset:offset + _CHUNK]
            idx = (np.arange(idx.start, idx.stop, idx.step, dtype=np.int64)
                   if isinstance(idx, range) else np.asarray(idx, dtype=np.int64))
            if idx[0] < self._m or np.any(idx[1:] < idx[:-1]):
                raise ValidationError("OrbitEvaluator requires nondecreasing indices")
            part = self._run_chunk(idx, need_theta, delta)
            self._m = int(idx[-1])
            yield offset, part

    def run(self, indices: Iterable[int], need_theta: bool = False):
        """Coordinate arrays (xs, ys, thetas) over nondecreasing indices, a
        range or any iterable of ints: the chunks of ``chunks`` in one array
        each."""
        if not isinstance(indices, range):
            indices = np.fromiter(indices, dtype=np.int64)
        out = np.empty(len(indices)), np.empty(len(indices)), np.zeros(len(indices))
        for lo, part in self.chunks(indices, need_theta):
            for a, b in zip(out, part):
                a[lo:lo + b.size] = b
        return out

    def _run_chunk(self, idx, need_theta, delta):
        """(xs, ys, thetas) of one chunk: exact anchors every _ANCHOR_EVERY
        indices, float64 blocks w * u^t reduced row-wise, exact fallback;
        ``delta`` (_check_delta) gives each exact point's error against the
        closed form at _CHECK_BITS more bits.

        The chunk is an (anchors, _ANCHOR_EVERY) grid, one block per row,
        against which each anchor's values broadcast as a column; a short
        last block is padded with its last index, and the padding is cut
        off before the fallback. ``_reduced_delta`` reduces only the
        coordinate rows and reads the integer delta back from them, and a
        point is kept only where that delta is an exact det-1 matrix."""
        n = idx.size
        heads = idx[::_ANCHOR_EVERY]
        anchors = []  # exact state per block
        for m in heads.tolist():
            self._state = self._step(self._state, m)
            anchors.append(self._state)
        # (4, anchors, 1): A, B, C, D of each anchor, as hi + lo
        hi, lo = np.array([[_split(v, self.one) for v in s[1]] for s in anchors]).T[..., None]
        # an integral anchor makes every float operation below exact
        rounded = ((lo != 0) | (hi != np.round(hi))).any(axis=0)
        w = hi + lo
        scale = 1.0 + np.abs(w[0]) + np.abs(w[2])
        ref_one = self.one << _CHECK_BITS
        g0 = np.array([[float(s[2][k]) for s in anchors] for k in range(4)])[..., None]
        dt0, db0 = np.array([_state_error(s, delta, ref_one) for s in anchors]).T
        grid = np.append(idx, np.full(-n % _ANCHOR_EVERY, idx[-1]))
        t = (grid.reshape(-1, _ANCHOR_EVERY) - heads[:, None]).astype(float)
        del grid
        p, q, r, s = _reduced_delta(w[0], w[1] + t * w[0], w[2], w[3] + t * w[2])
        # delta * w * u^t again from the split anchor: delta * hi is exact, so
        # t multiplies a rounding of the reduced rows instead of one of w
        a = (p * hi[0] + q * hi[2]) + (p * lo[0] + q * lo[2])
        c = (r * hi[0] + s * hi[2]) + (r * lo[0] + s * lo[2])
        b = (p * hi[1] + q * hi[3]) + (p * lo[1] + q * lo[3]) + t * a
        d = (r * hi[1] + s * hi[3]) + (r * lo[1] + s * lo[3]) + t * c
        den = c * c + d * d
        xs = (a * c + b * d) / den
        del a, b
        ys = 1.0 / den
        del den
        # rounding, plus the anchor's own error carried by delta and u^t
        t1 = 1.0 + t
        del t
        dt, db = dt0[:, None] * t1, db0[:, None] * t1
        ap, aq, ar, as_ = np.abs(p), np.abs(q), np.abs(r), np.abs(s)
        err = (_ERROR_SCALE * _EPS * t1 * scale * ys * rounded
               + _coordinate_bound(ys, ap * dt + aq * db, ar * dt + as_ * db))
        del t1, dt, db
        size = ap + aq + ar + as_
        del ap, aq, ar, as_
        # p s - q r is exact in float64 while size < 2^20; within err of the
        # domain's boundary the exact path may pick the other representative
        ok = ((err <= _TOLERANCE) & (size < _MAX_DELTA) & (p * s - q * r == 1.0)
              & (0.5 - np.abs(xs) > err) & ((np.hypot(xs, ys) - 1.0 > err) | (err == 0.0)))
        del err, p, q
        if need_theta:
            # sign of gamma = delta * g0, normalized as in coords; exact while
            # every product stays below 2^53
            gr = r * g0[0] + s * g0[2]
            gs = r * g0[1] + s * g0[3]
            ok &= size * np.abs(g0).max(axis=0) < 2.0 ** 53
            sign = np.where((gr > 0) | ((gr == 0) & (gs > 0)), 1.0, -1.0)
            del gr, gs
            ts = np.arctan2(sign * c, sign * d)
            # ts % (2 pi) bit for bit: arctan2 lies in [-pi, pi], and + 0.0
            # turns -0.0 into the remainder's +0.0
            ts = np.where(ts < 0, ts + 2 * math.pi, ts) + 0.0
            ts = ts.reshape(-1)[:n]
        else:
            ts = np.zeros(n)
        del r, s, c, d, size
        xs, ys, ok = xs.reshape(-1)[:n], ys.reshape(-1)[:n], ok.reshape(-1)[:n]
        bounds = list(zip(_coordinate_bound(ys[::_ANCHOR_EVERY], dt0, db0).tolist(),
                          heads.tolist()))
        for k in np.flatnonzero(~ok).tolist():  # ascending within each block
            blk, m = k // _ANCHOR_EVERY, int(idx[k])
            anchors[blk] = state = self._step(anchors[blk], m)
            pt = self._point(state, need_theta)
            bounds.append((float(_coordinate_bound(
                pt.y, *_state_error(state, delta, ref_one))), m))
            xs[k], ys[k] = pt.x, pt.y
            if need_theta:
                ts[k] = pt.theta
        bound, m = max(bounds)
        if not bound <= _TOLERANCE:
            need = self.bits + math.ceil(math.log2(bound / _TOLERANCE))
            raise PrecisionError(
                f"orbit point at n={m} may be {bound:.2g} off the closed form at "
                f"{self.bits + _CHECK_BITS} bits: it needs about {need} working "
                f"bits, not {self.bits}")
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
    return OrbitEvaluator(xi, max(n, 2), precision_bits).coords(n, need_theta)


# ---------------------------------------------------------------------------
# observables and Haar means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observable:
    """A continuous test function on the compactified modular surface.

    ``kind`` is 'k_invariant' (function of x, y) or 'frame' (of x, y,
    theta). ``cusp_limit`` is the declared value as y -> infinity;
    ``haar_mean`` checks that f reaches it above its highest node.
    """

    label: str
    kind: str
    fn: Callable
    cusp_limit: float
    exact_mean: Optional[float] = None

    def eval(self, x, y, theta=None):
        if self.kind == "k_invariant":
            return self.fn(np.asarray(x, float), np.asarray(y, float))
        if theta is None:
            raise ValidationError(f"{self.label} is frame-dependent; theta required")
        return self.fn(np.asarray(x, float), np.asarray(y, float),
                       np.asarray(theta, float))

    def shifted(self, c: float) -> "Observable":
        fn = lambda *a, _f=self.fn, _c=c: _f(*a) - _c
        mean = None if self.exact_mean is None else self.exact_mean - c
        return Observable(f"{self.label}-{c:.6g}", self.kind, fn, self.cusp_limit - c, mean)


def _check_params(name: str, positive: bool, **params):
    need = "a finite positive" if positive else "a finite"
    for key, v in params.items():
        if not math.isfinite(v) or (positive and v <= 0):
            raise ValidationError(f"{name} needs {need} {key}, got {v}")


# |c| allowed for a constant observable: c^2, a pair correlation's term, then
# stays finite, so correlate fails here with this message, not in the sum
_CONST_MAX = 1e100


def const_observable(c: float = 1.0) -> Observable:
    _check_params("const", False, c=c)
    if abs(c) > _CONST_MAX:
        raise ValidationError(f"const needs |c| <= {_CONST_MAX:g}, got {c}")
    return Observable(f"const:{c}", "k_invariant",
                      lambda x, y: np.full_like(np.asarray(y, float), c),
                      cusp_limit=c, exact_mean=c)


def bump_observable(y0: float = 2.0, width: float = 0.5) -> Observable:
    """Gaussian bump in log-height, vanishing at the cusp."""
    _check_params("bump", True, y0=y0, width=width)
    return Observable(
        f"bump:y0={y0:g},width={width:g}", "k_invariant",
        lambda x, y: np.exp(-((np.log(y / y0) / width) ** 2)),
        cusp_limit=0.0)


def step_observable(y0: float = 2.0, width: float = 0.25) -> Observable:
    """Smoothed indicator of {y > y0}; tends to 1 at the cusp."""
    _check_params("step", True, y0=y0, width=width)
    return Observable(
        f"step:y0={y0:g},width={width:g}", "k_invariant",
        lambda x, y: 1.0 / (1.0 + np.exp(-(y - y0) / width)),
        cusp_limit=1.0)


def windy_observable(y0: float = 2.0, width: float = 0.5) -> Observable:
    """Frame-dependent bump weighted by cos(theta); Haar mean zero."""
    _check_params("windy", True, y0=y0, width=width)
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
    """Orders of the Haar rule on the whole fundamental domain: Gauss-Legendre
    in x (``nx``) and in v = 1/y (``nv``), midpoint in theta (``ntheta``,
    used by frame observables only)."""

    nx: int = 16
    nv: int = 64
    ntheta: int = 64

    def __post_init__(self):
        if self.nx < 2 or self.nv < 2 or self.ntheta < 1:
            raise ValidationError(f"degenerate quadrature spec {self}")


def _legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton's method on P_n;
    from these guesses six passes reach rounding for orders 2 to 2000."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _gauss_rule(quad: QuadratureSpec):
    """Nodes x (nx, 1) and y (nx, nv) with Haar weights (nx, nv): in v = 1/y the
    Haar measure is dx dv on |x| <= 1/2, 0 <= v <= (1-x^2)^(-1/2), untruncated."""
    gx, wx = _legendre(quad.nx)
    gv, wv = _legendre(quad.nv)
    vtop = 1.0 / np.sqrt(1.0 - 0.25 * gx * gx)
    ys = 1.0 / np.outer(vtop, 0.5 * (gv + 1.0))
    return 0.5 * gx[:, None], ys, np.outer(0.25 * wx * vtop, wv)


def domain_mass(quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Unnormalized area of the fundamental domain, pi/3 to rounding: the sum
    of the rule's weights (the x-integrand (1-x^2)^(-1/2) is analytic)."""
    return float(np.sum(_gauss_rule(quad)[2]))


def _check_cusp_decay(f: Observable, y_top: float, tol: float = 1e-3):
    """The v rule needs f continuous at v = 0: from the highest node y_top
    up, f must sit at its declared cusp limit."""
    ys = y_top * np.array([[1.0], [2.0], [10.0], [1e3]])
    vals = np.mean(f.eval(np.zeros_like(ys), ys, np.array([0.0, math.pi])), axis=-1)
    dev = float(np.max(np.abs(vals - f.cusp_limit)))
    if dev > tol:
        raise ConvergenceError(
            f"{f.label}: deviates from its cusp limit by {dev:.3g} above the "
            f"highest quadrature node y={y_top:.4g}; fix cusp_limit")


def haar_mean(f: Observable, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Mean of f against the normalized hyperbolic volume: one ``f.eval`` on
    the rule's nodes times the theta nodes, weighted, over ``domain_mass``."""
    xs, ys, weights = _gauss_rule(quad)
    _check_cusp_decay(f, float(ys.max()))
    nt = quad.ntheta if f.kind == "frame" else 1
    thetas = (np.arange(nt) + 0.5) * (2 * math.pi / nt)
    vals = np.real(f.eval(xs[..., None], ys[..., None], thetas)).mean(axis=-1)
    return float(np.sum(weights * vals)) / float(np.sum(weights))


def split_observable(f: Observable,
                     quad: QuadratureSpec = QuadratureSpec()):
    """f = f1 + c with c the Haar mean and f1 mean-zero (within quadrature)."""
    c = haar_mean(f, quad)
    return f.shifted(c), c


# ---------------------------------------------------------------------------
# Birkhoff averages, pair correlations, orthogonality sums
# ---------------------------------------------------------------------------

def _orbit_chunks(f: Observable, xi: ModularPoint, indices: range,
                  precision_bits: Optional[int]):
    """(offset, f values) along the orbit at indices, one chunk at a time."""
    ev = OrbitEvaluator(xi, indices[-1] if indices else 2, precision_bits)
    for lo, (xs, ys, ts) in ev.chunks(indices, need_theta=(f.kind == "frame")):
        yield lo, np.asarray(f.eval(xs, ys, ts), dtype=float)


def birkhoff_average(f: Observable, xi: ModularPoint, N: int,
                     precision_bits: Optional[int] = None) -> float:
    """(1/N) sum_{n=1..N} f(xi u^n); the sum is exactly rounded."""
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    total = ExactSum()
    for _, vals in _orbit_chunks(f, xi, range(1, N + 1), precision_bits):
        total.add(vals)
    return total.value() / N


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
    total = ExactSum()
    # both speeds give N points, so their chunks pair up
    for (_, vp), (_, vq) in zip(
            _orbit_chunks(f, xi, range(p, p * N + 1, p), precision_bits),
            _orbit_chunks(f, xi, range(q, q * N + 1, q), precision_bits)):
        total.add(vp * vq)
    value = total.value() / N
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
                            precision_bits: Optional[int] = None) -> DisjointnessReport:
    """Weighted orbit averages (1/N) sum nu(n) f(T^n xi) along a ladder of N.

    Each row also reports the mean-zero part: with f = f1 + c the average
    splits as (1/N) sum nu f1 + c * (1/N) sum nu. nu must be real on [1, N].
    Both sums are exactly rounded at every rung, from one pass over [1, N]
    that reads the orbit and nu one chunk at a time.
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
    if np.iscomplexobj(nu.values) and np.any(nu.values[1:N + 1].imag):
        raise ValidationError(f"{nu.label}: disjointness needs a real nu on [1,{N}]")
    c = f.exact_mean if f.exact_mean is not None else haar_mean(f)
    totals, nu_sums = ExactSum(), ExactSum()
    rows = []
    for lo, vals in _orbit_chunks(f, xi, range(1, N + 1), precision_bits):
        # n = lo + 1 .. lo + len(vals); each rung in that range splits the chunk
        nu_part = nu.values[lo + 1:lo + 1 + vals.size].real.astype(np.float64)
        prod, start = nu_part * vals, 0
        while len(rows) < len(ladder) and ladder[len(rows)] <= lo + vals.size:
            nk = ladder[len(rows)]
            totals.add(prod[start:nk - lo])
            nu_sums.add(nu_part[start:nk - lo])
            start = nk - lo
            total, nu_mean = totals.value() / nk, nu_sums.value() / nk
            rows.append(DisjointnessRow(nk, total, total - c * nu_mean, nu_mean))
        totals.add(prod[start:])
        nu_sums.add(nu_part[start:])
    return DisjointnessReport(repr(xi), f.label, nu.label, c, rows)


def orbit_sequence(xi: ModularPoint, f: Observable, horizon: int,
                   precision_bits: Optional[int] = None) -> BoundedSequence:
    """Bounded sequence F(n) = f(xi u^n) for the bilinear engine; needs |f| <= 1."""
    vals = np.zeros(horizon + 1, dtype=np.complex128)
    for lo, part in _orbit_chunks(f, xi, range(1, horizon + 1), precision_bits):
        vals.real[lo + 1:lo + 1 + part.size] = part
    return BoundedSequence._owned(vals, f"horocycle:{f.label}")
