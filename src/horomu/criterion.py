"""Bilinear orthogonality engine for bounded multiplicative weights.

Measures pair correlations sum_{m<=M} F(p1 m) conj(F(p2 m)), estimates the
correlation level tau over all prime pairs below a cutoff, and replays the
full inequality chain that turns small pair correlations into a bound

    |sum_{n} nu(n) F(n)|  <=  2 sqrt(tau log(1/tau)) N

on concrete data: triangle step over the block decomposition with the
leftover measured exactly, multiplicative factorization, Cauchy-Schwarz,
range extension, bilinear expansion into diagonal and off-diagonal parts.
Steps that are true inequalities at any finite N are checked as computed
numbers; steps that rely on asymptotic slack are reported as reference
lines with a hold/fail flag, never as errors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arith import MultiplicativeTable, check_unit_bound, sieve_primes
from .decomp import (DecompositionParams, ProductSets, prime_blocks, product_sets,
                     window_primes)
from .errors import (CapacityError, DomainError, EmptyPairSetError, HorizonError,
                     ValidationError)
from .exactreal import FRAC_SHIFT, fixed_point_image, frac_parts

SEQUENCE_BUDGET = 50_000_000
PAIR_PRIME_BUDGET = 4096  # primes in the tau Gram or one block's: 268 MB
# window indices per block of the window pass; its temporaries stay this
# small at any N (0.75 MB at 2^14), and each sum adds at most this many
# terms before the per-block partials are added in index order
WINDOW_BLOCK = 1 << 14
# entries of F(p m) per _row_tiles tile, for the tau Gram and every block
# ledger: 1 MB of complex values, which stays in a 2 MB L2 cache; either
# holds a few such tiles at any N
ROW_TILE = 1 << 16
# indices per chunk of BoundedSequence.exponential: its table of e(t theta)
# takes 256 KB and stays in cache while each chunk is one product with it;
# smaller chunks pay a Python-int product and a cmath.exp more often
TRIG_CHUNK = 1 << 14
# entries of the k x k product added into a Gram per band of rows: the
# band's temporary is 4 MB however many primes the Gram has
GRAM_BAND = 1 << 18
# m per tile at least, however many rows are active: a tile's product
# reads and writes rows^2 Gram entries, and below ~128 multiply-adds per
# entry that traffic sets the time (2467 rows at cutoff 22027 would give
# 26 m per ROW_TILE tile)
TILE_MIN_WIDTH = 128


class BoundedSequence:
    """A sequence F: [1, horizon] -> C with |F| <= 1, stored densely.

    Index 0 of the value array is unused and holds 0. Construction rejects
    non-finite values and checks the bound with a 1e-12 cushion for
    rounding.
    """

    def __init__(self, values: np.ndarray, label: str):
        self._adopt(np.array(values, dtype=np.complex128), label)

    @classmethod
    def _owned(cls, values: np.ndarray, label: str) -> "BoundedSequence":
        """Wrap a complex128 array built for this sequence, without a copy."""
        seq = cls.__new__(cls)
        seq._adopt(values, label)
        return seq

    def _adopt(self, values: np.ndarray, label: str) -> None:
        if values.ndim != 1 or values.size < 2:
            raise ValidationError("sequence needs values for at least n=1")
        values[0] = 0
        check_unit_bound(values, label)
        values.setflags(write=False)
        self.values = values
        self.label = label
        self.horizon = values.size - 1

    def eval(self, n: int) -> complex:
        if not 1 <= n <= self.horizon:
            raise HorizonError(f"{self.label} defined on [1,{self.horizon}], got {n}")
        return complex(self.values[n])

    def multiples(self, p: int, count: int) -> np.ndarray:
        """F(p), F(2p), ..., F(count*p)."""
        if p * count > self.horizon:
            raise HorizonError(
                f"{self.label}: need index {p * count} beyond horizon {self.horizon}")
        return self.values[p:: p][:count]

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c, horizon: int) -> "BoundedSequence":
        _check_budget(horizon)
        vals = np.full(horizon + 1, complex(c), dtype=np.complex128)
        return cls._owned(vals, f"const:{c}")

    @classmethod
    def exponential(cls, theta, horizon: int, label: Optional[str] = None) -> "BoundedSequence":
        """F(n) = e(n theta) = exp(2 pi i n theta), as e(t theta) e(lo theta).

        theta is anything ``exactreal.as_symbolic`` reads: a string in the
        entry grammar ('sqrt2', '3/7', '1e-3', '1+2*sqrt2'), a SymbolicReal,
        a rational or a float. Angles go through the shared fixed-point
        channel: with P = floor(theta 2^96), n theta is read as n P / 2^96.
        The table exp(2j pi frac_parts(theta, t)) of t < TRIG_CHUNK is
        formed once. The chunk of n = lo + t takes one factor from the
        exact residue r = lo P mod 2^96, cmath.exp(2j pi (r / 2^96)), and
        one complex product with the table writes it. No factor comes from
        a recurrence, so the error does not grow with n.

        Error bound. With u = 2^-53, every value is within

            B(n) = 2e + e^2 + sqrt(5) u (1 + e)^2 + 2 pi n 2^-95,
            e = (8 + pi + sqrt(2)) u + 2 pi 2^-77,

        of the exact e(n theta): 27.4 u = 3.0e-15 at any budgeted horizon.
        The parts:
          - table and factor angles x are within 2^-54 + 2^-77
            (``frac_parts``) or 2^-54 (r / 2^96, rounded once) of the exact
            residue over 2^96;
          - y = fl(fl(2 pi) x) is within 2^-51 (fl(pi)) + 2^-51 (the product,
            below 8) + 2 pi |x error| of 2 pi times that residue;
          - libm's cos and sin are taken within 1 ulp, sqrt(2) u a value,
            so e bounds the error of each table entry and factor;
          - numpy's complex product rounds by at most sqrt(5) u times the
            product of the moduli (Brent, Percival and Zimmermann, 2007);
          - P, a floor found with 64 guard bits, is within 2 of theta 2^96.
        """
        _check_budget(horizon)
        vals = np.empty(horizon + 1, dtype=np.complex128)
        image = fixed_point_image(theta, FRAC_SHIFT)
        table = np.exp(2j * np.pi * frac_parts(theta, np.arange(TRIG_CHUNK)))
        for lo in range(0, vals.size, TRIG_CHUNK):
            out = vals[lo:lo + TRIG_CHUNK]
            residue = lo * image % (1 << FRAC_SHIFT)
            factor = cmath.exp(2j * math.pi * (residue / (1 << FRAC_SHIFT)))
            np.multiply(table[:out.size], factor, out=out)
        name = theta if isinstance(theta, str) else repr(theta)
        return cls._owned(vals, label or f"exp:{name}")


def _check_budget(horizon: int) -> None:
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if horizon > SEQUENCE_BUDGET:
        raise CapacityError(f"horizon {horizon} exceeds sequence budget {SEQUENCE_BUDGET}")


@dataclass(frozen=True)
class PairCorrelation:
    p1: int
    p2: int
    m: int
    total: complex
    normalized: float


def bilinear_sum(F: BoundedSequence, p1: int, p2: int, M: int) -> PairCorrelation:
    """sum_{m<=M} F(p1 m) conj(F(p2 m)) by np.sum: pairwise in float64, not exact."""
    if p1 == p2:
        raise ValidationError("bilinear_sum needs distinct p1, p2")
    if M < 1:
        raise ValidationError(f"bilinear_sum needs M >= 1, got {M}")
    a = F.multiples(p1, M)
    b = F.multiples(p2, M)
    total = complex(np.sum(a * np.conj(b)))
    return PairCorrelation(p1, p2, M, total, abs(total) / M)


def _normalize_excluded(excluded) -> set[frozenset]:
    out = set()
    for pair in excluded or ():
        try:
            p, q = pair
            out.add(frozenset((int(p), int(q))))
        except (TypeError, ValueError):
            raise ValidationError(f"an excluded pair must be two integers, got {pair!r}")
    return out


def _excluded_index(primes: np.ndarray, excluded: Sequence[tuple[int, int]]):
    """Row and column in ``primes`` of each excluded pair (p < q) with both in it."""
    pairs = np.array(excluded, dtype=np.int64).reshape(-1, 2)
    at = np.searchsorted(primes, pairs).clip(max=primes.size - 1)
    both = (primes[at] == pairs).all(axis=1)
    return at[both, 0], at[both, 1]


def _pair_plan(horizon: int, prime_cutoff: float, M: Optional[int],
               excluded: Sequence, window: Optional[int]):
    """(primes, limits, excluded, policy) of a tau estimate, checked before any sum.

    ``primes`` holds, ascending, every prime <= cutoff in some pair left
    after exclusion; ``limits[i]`` is the last m sampled for it, so a pair
    (p_i, p_k), i < k, sums over m <= limits[k]. ``excluded`` is sorted.
    """
    if not math.isfinite(prime_cutoff):
        raise ValidationError(f"prime cutoff must be finite, got {prime_cutoff}")
    if prime_cutoff < 3:
        raise EmptyPairSetError(f"no prime pairs below cutoff {prime_cutoff}")
    if M is not None and M < 1:
        raise HorizonError(f"pair length M = {M} must be at least 1")
    ps = sieve_primes(int(prime_cutoff)).primes
    skip = _normalize_excluded(excluded)
    listed = set(ps.tolist())
    bad = sorted(sorted(s) for s in skip if len(s) != 2 or not s <= listed)
    if bad:
        raise ValidationError(
            f"excluded pairs must be two distinct primes <= {prime_cutoff:g}, got {bad}")
    skip = sorted(tuple(sorted(s)) for s in skip)
    # a prime stays while some pair through it is not excluded
    cut = np.bincount(np.concatenate(_excluded_index(ps, skip)), minlength=ps.size)
    ps = ps[cut < ps.size - 1]
    if ps.size == 0:
        raise EmptyPairSetError("all pairs below the cutoff were excluded")
    if ps.size > PAIR_PRIME_BUDGET:
        raise CapacityError(f"{ps.size} primes in pairs below cutoff {prime_cutoff:g} "
                            f"exceed the pair budget {PAIR_PRIME_BUDGET}")
    ref = horizon if window is None else min(window, horizon)
    if M is None:
        limits = ref // ps
        policy = f"per-pair floor({ref}/max(p1,p2))"
    else:
        limits = np.full(ps.size, M, dtype=np.int64)
        policy = f"uniform:{M}"
    # limits never increase along the primes, so the last one is the least
    # of any pair through the largest prime
    if limits[-1] < 1:
        raise HorizonError(f"window {ref} cannot support pair with p = {int(ps[-1])}")
    if int(ps[-1]) * int(limits[-1]) > horizon:
        raise HorizonError(f"need index {int(ps[-1]) * int(limits[-1])} "
                           f"beyond horizon {horizon}")
    return ps, limits, skip, policy


def _row_tiles(values: np.ndarray, primes: np.ndarray, limits: np.ndarray,
               gram: np.ndarray):
    """Stream the rows values[p_i m], m = 1 .. limits[i], as (m0, tile) pairs.

    ``tile[i, t] = values[p_i (m0 + t)]`` for the rows still active at m0,
    and 0 past row i's own limit. Limits never increase, so the active rows
    are a prefix; a tile is as wide as ROW_TILE entries allow for them, but
    at least TILE_MIN_WIDTH m wide (or up to the last m). Each row is one
    strided slice copy into a buffer allocated once per call, so a tile is
    valid only until the next one. Up to ROW_TILE / TILE_MIN_WIDTH = 512
    rows a tile and its conjugate copy take 2 MB, and the BLAS product
    reads them from cache.
    Before a tile is yielded, its product is added into ``gram`` in bands
    of rows of at most GRAM_BAND entries, so at the end gram[i, k] =
    sum_{m <= min(limits[i], limits[k])} F(p_i m) conj(F(p_k m)).
    """
    k, top = primes.size, int(limits[0])
    buf = np.empty(min(max(ROW_TILE, k * TILE_MIN_WIDTH), k * top), dtype=values.dtype)
    ps, lims = primes.tolist(), limits.tolist()
    m0 = 1
    while m0 <= top:
        rows = int(np.count_nonzero(limits >= m0))
        width = min(max(TILE_MIN_WIDTH, ROW_TILE // rows), top + 1 - m0)
        tile = buf[:rows * width].reshape(rows, width)
        end = m0 + width - 1
        for row, p, lim in zip(tile, ps, lims):
            count = min(lim, end) - m0 + 1
            row[:count] = values[p * m0:p * (m0 + count - 1) + 1:p]
            row[count:] = 0
        tile_h = tile.conj().T
        band = max(1, GRAM_BAND // rows)
        for lo in range(0, rows, band):
            hi = min(lo + band, rows)
            gram[lo:hi, :rows] += tile[lo:hi] @ tile_h
        del tile_h  # free this copy before the next tile's is made
        yield m0, tile
        m0 += width


@dataclass(frozen=True, eq=False)
class TauEstimate:
    """tau_hat over the pairs of ``primes``: ``gram[i, k]`` (i < k) is the total
    of (primes[i], primes[k]) over m <= limits[k], excluded pairs included."""

    tau_hat: float
    worst_pair: tuple[int, int]
    primes: np.ndarray
    limits: np.ndarray
    gram: np.ndarray
    excluded: list[tuple[int, int]]
    m_policy: str

    @property
    def pairs(self) -> list[PairCorrelation]:
        """Every pair not excluded, by (p1, p2) ascending; built on each access."""
        keep = np.triu(np.ones(self.gram.shape, dtype=bool), 1)
        keep[_excluded_index(self.primes, self.excluded)] = False
        rows, cols = np.nonzero(keep)
        ps, ms = self.primes.tolist(), self.limits.tolist()
        return [PairCorrelation(ps[i], ps[k], ms[k], t, abs(t) / ms[k])
                for i, k, t in zip(rows.tolist(), cols.tolist(),
                                   self.gram[rows, cols].tolist())]


def tau_estimate(F: BoundedSequence, prime_cutoff: float,
                 M: Optional[int] = None, excluded: Sequence = (),
                 window: Optional[int] = None) -> TauEstimate:
    """Largest normalized pair correlation over distinct primes <= cutoff.

    With M=None each pair uses M = floor(window / max(p1, p2)), window
    defaulting to the horizon, so every sampled product stays inside the
    window; explicit M applies uniformly. Excluded pairs must be two
    distinct primes <= cutoff; they are skipped and echoed back, never
    silently dropped. Over PAIR_PRIME_BUDGET primes raise CapacityError.

    All pair sums come from one Hermitian Gram matrix of the rows
    F(p m), accumulated in BLAS over ``_row_tiles`` of ROW_TILE entries,
    the tiles of the block ledgers, which stay in cache; each pair total
    equals ``bilinear_sum`` up to float64 rounding. tau_hat is the largest
    |total| / m, the first of equals in row-major order. Pair totals and
    tau_hat are float64 sums: they agree to rounding, not bit for bit,
    across BLAS thread counts.
    """
    ps, limits, skip, policy = _pair_plan(F.horizon, prime_cutoff, M, excluded, window)
    gram = np.zeros((ps.size, ps.size), dtype=np.complex128)
    for _ in _row_tiles(F.values, ps, limits, gram):
        pass
    norm = np.hypot(gram.real, gram.imag)  # rounds as abs() of a complex
    norm /= limits
    norm[np.tri(ps.size, dtype=bool)] = -1
    norm[_excluded_index(ps, skip)] = -1
    i, k = np.unravel_index(np.argmax(norm), norm.shape)
    return TauEstimate(float(norm[i, k]), (int(ps[i]), int(ps[k])),
                       ps, limits, gram, skip, policy)


def vinogradov_bound(tau: float, N: int) -> float:
    """2 sqrt(tau ln(1/tau)) N for tau in (0, 1)."""
    if not 0 < tau < 1:
        raise DomainError(f"bound needs tau in (0,1), got {tau}")
    return 2 * math.sqrt(tau * math.log(1 / tau)) * N


def weighted_sum(nu: MultiplicativeTable, F: BoundedSequence, N: int) -> complex:
    """sum_{n<=N} nu(n) F(n) with pairwise summation."""
    if N < 1:
        raise ValidationError(f"weighted_sum needs N >= 1, got {N}")
    if nu.n_max < N:
        raise HorizonError(f"nu table covers [1,{nu.n_max}], need {N}")
    if F.horizon < N:
        raise HorizonError(f"F covers [1,{F.horizon}], need {N}")
    return complex(np.sum(nu.values[1:N + 1] * F.values[1:N + 1]))


@dataclass(frozen=True)
class ChainLine:
    """One inequality of the proof chain evaluated on concrete numbers.

    ``exact`` marks steps that must hold at any finite N (triangle and
    Cauchy-Schwarz steps, crude diagonal bounds); non-exact lines compare
    against asymptotic reference quantities and may legitimately fail at
    desk scale.
    """

    name: str
    lhs: float
    rhs: float
    exact: bool

    @property
    def holds(self) -> bool:
        slack = 1e-9 * max(1.0, abs(self.lhs), abs(self.rhs))
        return self.lhs <= self.rhs + slack

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": repr(self.lhs), "rhs": repr(self.rhs),
                "exact": self.exact, "holds": self.holds}


@dataclass(frozen=True)
class BlockLedger:
    j: int
    pair_sum: complex          # sum over P_j Q_j of nu(x y) F(x y)
    factored_sum: complex      # same sum assembled as sum_y nu(y) sum_x nu(x) F(xy)
    inner_abs: float           # T_j = sum_{y in Q_j} |sum_x nu(x) F(xy)|
    cauchy: float              # |Q_j|^(1/2) (sum_{y in Q_j} |...|^2)^(1/2)
    extended: float            # range extended to all y <= Y_j
    diagonal: float            # sum_x sum_{y<=Y_j} |F(xy)|^2
    off_diagonal: float        # sum_{x1 != x2} |sum_y F(x1 y) conj(F(x2 y))|
    y_cap: int
    p_count: int
    q_count: int

    def as_dict(self) -> dict:
        return {"j": self.j,
                "pair_sum": [repr(self.pair_sum.real), repr(self.pair_sum.imag)],
                "inner_abs": repr(self.inner_abs), "cauchy": repr(self.cauchy),
                "extended": repr(self.extended), "diagonal": repr(self.diagonal),
                "off_diagonal": repr(self.off_diagonal),
                "y_cap": self.y_cap, "p_count": self.p_count, "q_count": self.q_count}


@dataclass(frozen=True)
class CriterionReport:
    n: int
    prime_cutoff: float
    tau: TauEstimate
    tau_effective: float
    bound_rhs: float
    trivial_bound: float       # sum over [1, N) of |nu(n) F(n)|
    weighted: complex          # sum over [1, N) of nu(n) F(n)
    leftover_sum: complex
    leftover_count: int
    blocks: list[BlockLedger]
    chain: list[ChainLine]
    verdict: str               # holds | fails | inconclusive
    margin: Optional[float]
    excluded: list[tuple[int, int]]
    params: DecompositionParams
    diagnostics: dict = field(default_factory=dict)

    @property
    def exact_chain_holds(self) -> bool:
        return all(ln.holds for ln in self.chain if ln.exact)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "prime_cutoff": self.prime_cutoff,
            "alpha": str(self.params.alpha),
            "j0": self.params.j0,
            "j1": self.params.j1,
            "tau_hat": repr(self.tau.tau_hat),
            "tau_effective": repr(self.tau_effective),
            "worst_pair": list(self.tau.worst_pair),
            "m_policy": self.tau.m_policy,
            "excluded": [list(p) for p in self.excluded],
            "bound_rhs": repr(self.bound_rhs),
            "trivial_bound": repr(self.trivial_bound),
            "bound_to_trivial": (repr(self.bound_rhs / self.trivial_bound)
                                 if self.trivial_bound > 0 else None),
            "weighted_sum": [repr(self.weighted.real), repr(self.weighted.imag)],
            "weighted_abs": repr(abs(self.weighted)),
            "leftover_count": self.leftover_count,
            "leftover_abs": repr(abs(self.leftover_sum)),
            "blocks": [b.as_dict() for b in self.blocks],
            "chain": [ln.as_dict() for ln in self.chain],
            "verdict": self.verdict,
            "margin": repr(self.margin) if self.margin is not None else None,
            "exact_chain_holds": self.exact_chain_holds,
            "diagnostics": self.diagnostics,
        }


def criterion_ledger(nu: MultiplicativeTable, F: BoundedSequence, N: int,
                     alpha, j0: int, j1: int, excluded: Sequence = (), *,
                     cutoff: float, M: Optional[int] = None,
                     threads: int = 1) -> CriterionReport:
    """Replay the whole inequality chain on actual data over [1, N).

    The window is half-open to match the decomposition partition; the
    range-extension step samples F up to ceil((1+alpha) * N), so the
    sequence horizon must reach that far. The cutoff, the excluded pairs
    and the pair lengths are checked before the decomposition is built.
    Of the decomposition the ledger keeps only ``decomp.product_sets``:
    the blocks, Q_j and a key of one byte per n.
    The bound is formed only for tau_eff < 1/e, where it is monotone;
    otherwise ``bound_rhs`` is the trivial bound sum |nu(n) F(n)|. The
    verdict is ``holds`` only when the bound is below the trivial bound; a
    bound no smaller says nothing and is ``inconclusive``. ``threads`` is
    ignored; it is kept only for callers that still pass it.
    """
    return _ledger(nu, F, DecompositionParams(N, Fraction(alpha), j0, j1), excluded,
                   cutoff=cutoff, M=M)


def _ledger(nu: MultiplicativeTable, F: BoundedSequence, params: DecompositionParams,
            excluded: Sequence = (), *, cutoff: float,
            M: Optional[int] = None) -> CriterionReport:
    """criterion_ledger over the window and blocks of the built ``params``,
    so a caller that has already checked them builds their bounds once."""
    N = params.n
    if F.horizon < params.horizon:
        raise HorizonError(f"ledger needs F on [1,{params.horizon}] (range extension), "
                           f"horizon {F.horizon}")
    if nu.n_max < N - 1:
        raise HorizonError(f"nu table covers [1,{nu.n_max}], need {N - 1}")
    _pair_plan(F.horizon, cutoff, M, excluded, N)  # fail before the costly steps
    primes = window_primes(params)
    widest = max(map(len, prime_blocks(params, primes)), default=0)
    if widest > PAIR_PRIME_BUDGET:
        raise CapacityError(f"a block of {widest} primes exceeds the pair budget "
                            f"{PAIR_PRIME_BUDGET}")
    sets = product_sets(params, primes)
    total, leftover_sum, leftover_count, pair_sums, trivial = _window_pass(
        sets, nu.values, F)
    blocks = [_block_ledger(sets, j, pair_sum, nu.values, F)
              for j, pair_sum in zip(params.block_range, pair_sums)]
    del sets  # free the key before the tau tiles
    tau = tau_estimate(F, cutoff, M=M, excluded=excluded, window=N)
    tau_eff = max(tau.tau_hat, 1 / math.log(cutoff))
    chain, diagnostics = _assemble_chain(params, blocks, total, leftover_sum, tau_eff)

    # 2 sqrt(tau ln(1/tau)) falls again past tau = 1/e, so it bounds the sum
    # only below 1/e; above, the trivial bound stands and says nothing new
    if 0 < tau_eff < 1 / math.e:
        bound = vinogradov_bound(tau_eff, N)
        ratio = abs(total) / bound if bound > 0 else math.inf
        if ratio <= 1:
            # a bound no smaller than sum |nu F| certifies nothing the
            # triangle inequality does not
            verdict = "holds" if ratio <= 0.5 and bound < trivial else "inconclusive"
        else:
            verdict = "fails" if ratio >= 2 else "inconclusive"
        margin = bound / abs(total) if abs(total) > 0 else math.inf
    else:
        bound, verdict, margin = trivial, "inconclusive", None
    return CriterionReport(
        n=N, prime_cutoff=cutoff, tau=tau, tau_effective=tau_eff,
        bound_rhs=bound, trivial_bound=trivial, weighted=total,
        leftover_sum=leftover_sum, leftover_count=leftover_count, blocks=blocks,
        chain=chain, verdict=verdict, margin=margin,
        excluded=tau.excluded,
        params=params, diagnostics=diagnostics)


def _window_pass(sets: ProductSets, nu_values: np.ndarray, F: BoundedSequence):
    """The total, the leftover sum and count, every P_j Q_j sum and the
    trivial bound sum |nu(n) F(n)| over [1, N).

    One pass over the window in blocks [lo, hi) aligned to multiples of
    WINDOW_BLOCK (the first starts at 1). Each block forms nu(n) F(n) once:
    ``np.sum`` gives its share of the total and of the trivial bound, and
    ``np.bincount`` on ``sets.key`` adds its entries left to right into the
    leftover (key 0) or the product set of block j (key j - j0 + 1). The
    shares are added in index order, so the sums depend on WINDOW_BLOCK and
    on nothing else, and no temporary grows with N. The total is summed
    apart from the keyed sums, so the triangle step compares two
    independent sums. Returns (total, leftover_sum, leftover_count,
    pair_sums, trivial), with pair_sums in ``block_range`` order.
    """
    params = sets.params
    n, keys = params.n, len(params.block_range) + 1
    total, trivial = 0j, 0.0
    re, im = np.zeros(keys), np.zeros(keys)
    members = 0
    for start in range(0, n, WINDOW_BLOCK):
        lo, hi = max(start, 1), min(start + WINDOW_BLOCK, n)
        prod = nu_values[lo:hi] * F.values[lo:hi]
        total += complex(np.sum(prod))
        trivial += float(np.sum(np.abs(prod)))
        key = sets.key[lo:hi].astype(np.intp)
        members += int(np.count_nonzero(key))
        re += np.bincount(key, weights=prod.real, minlength=keys)
        im += np.bincount(key, weights=prod.imag, minlength=keys)
    sums = [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]
    return total, sums[0], n - 1 - members, sums[1:], trivial


def _block_ledger(sets: ProductSets, j: int, pair_sum: complex,
                  nu_values: np.ndarray, F: BoundedSequence) -> BlockLedger:
    """Block j's lines from one pass over y <= y_cap in ``_row_tiles`` of
    F(p y), p in P_j, which also form its Gram; inner(y) = sum_{x in P_j}
    nu(x) F(x y) is one tile-wide row, read at the members of Q_j."""
    params = sets.params
    block = sets.block(j)
    qs = sets.q_set(j)
    ps = block.primes.astype(np.int64)
    y_cap = params.y_caps[j - params.j0]  # range extension is y <= N/(1+alpha)^j

    if ps.size == 0 or qs.size == 0:
        return BlockLedger(j, pair_sum, 0j, 0.0, 0.0, 0.0, 0.0, 0.0,
                           y_cap, int(ps.size), int(qs.size))

    nu_p = nu_values[ps]
    gram = np.zeros((ps.size, ps.size), dtype=np.complex128)
    factored, t_j, sumsq_q, sumsq_all = 0j, 0.0, 0.0, 0.0
    limits = np.full(ps.size, y_cap, dtype=np.int64)
    for y0, tile in _row_tiles(F.values, ps, limits, gram):
        inner = nu_p @ tile
        lo, hi = np.searchsorted(qs, (y0, y0 + tile.shape[1]))
        if lo < hi:
            inner_q = inner[qs[lo:hi] - y0]
            factored += complex(np.sum(nu_values[qs[lo:hi]] * inner_q))
            mag = np.abs(inner_q)
            t_j += float(np.sum(mag))
            sumsq_q += float(np.sum(mag ** 2))
        sumsq_all += float(np.sum(np.abs(inner) ** 2))
    cauchy = math.sqrt(len(qs)) * math.sqrt(sumsq_q)
    extended = math.sqrt(len(qs)) * math.sqrt(sumsq_all)
    diag = float(np.sum(gram.diagonal().real))
    moduli = np.abs(gram)
    np.fill_diagonal(moduli, 0.0)  # summing all k^2 less the diagonal would cancel
    off = float(np.sum(moduli))
    return BlockLedger(j, pair_sum, factored, t_j, cauchy, extended, diag, off,
                       y_cap, int(ps.size), int(qs.size))


def _assemble_chain(params: DecompositionParams, blocks: list[BlockLedger],
                    total: complex, leftover_sum: complex, tau_eff: float):
    n = params.n
    a = float(params.alpha)
    sum_pair_abs = sum(abs(b.pair_sum) for b in blocks)
    sum_inner = sum(b.inner_abs for b in blocks)
    sum_cauchy = sum(b.cauchy for b in blocks)
    sum_extended = sum(b.extended for b in blocks)
    sum_bracket = sum(math.sqrt(b.q_count * (b.diagonal + b.off_diagonal))
                      for b in blocks)
    diag_sqrt = sum(math.sqrt(b.q_count * b.diagonal) for b in blocks)
    diag_crude = sum(math.sqrt(b.q_count * b.p_count * b.y_cap) for b in blocks)
    off_sqrt = sum(math.sqrt(b.q_count * b.off_diagonal) for b in blocks)
    geom = sum(float(params.base) ** (-j) for j in params.block_range)

    chain = [
        ChainLine("triangle-partition", abs(total),
                  sum_pair_abs + abs(leftover_sum), True),
        ChainLine("multiplicative-factorization", sum_pair_abs, sum_inner, True),
        ChainLine("cauchy-schwarz", sum_inner, sum_cauchy, True),
        ChainLine("range-extension", sum_cauchy, sum_extended, True),
        ChainLine("bilinear-expansion", sum_extended, sum_bracket, True),
        ChainLine("diagonal-crude", diag_sqrt, diag_crude, True),
        ChainLine("diagonal-aggregate", diag_crude, n * math.sqrt(geom), True),
        ChainLine("end-to-end", abs(total), sum_bracket + abs(leftover_sum), True),
        # asymptotic reference lines: these expect small alpha and huge D0,
        # so at desk parameters a failure is a diagnostic, not an error
        ChainLine("leftover-vs-3alpha", abs(leftover_sum), 3 * a * n, False),
        ChainLine("diagonal-vs-alpha", n * math.sqrt(geom), a * n, False),
    ]
    if 0 < a < 1:
        chain.append(ChainLine("offdiagonal-vs-reference", off_sqrt,
                               math.sqrt(tau_eff * math.log(1 / a)) * n, False))
    diagnostics = {
        "sum_pair_abs": repr(sum_pair_abs),
        "sum_inner_abs": repr(sum_inner),
        "sum_cauchy": repr(sum_cauchy),
        "sum_extended": repr(sum_extended),
        "sum_bracket": repr(sum_bracket),
        "diagonal_aggregate": repr(diag_sqrt),
        "off_diagonal_aggregate": repr(off_sqrt),
        "geometric_tail": repr(geom),
    }
    return chain, diagnostics
