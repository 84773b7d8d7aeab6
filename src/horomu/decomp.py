"""Decomposition of [1, N) into well-factored prime-block products.

Given a ratio parameter alpha and indices j0 < j1, set D0 = (1+alpha)^j0
and D1 = (1+alpha)^j1. The integers below N split into

* ``NOT_IN_S``: no prime factor strictly inside (D0, D1);
* ``UNIQUE(j)``: the least block P_j = primes in [(1+alpha)^j, (1+alpha)^(j+1))
  dividing n contains exactly one divisor of n, to the first power;
* ``MULTIPLE(j)``: the least block dividing n does so with a repeated or
  second prime (these are discarded into the leftover).

Blocks run j = j0 .. j1-1 so that they tile [D0, D1) exactly. For integer
p, (1+alpha)^j <= p < (1+alpha)^(j+1) holds exactly when
ceil((1+alpha)^j) <= p < ceil((1+alpha)^(j+1)). ``DecompositionParams``
alone forms these bounds and the cofactor caps, in one integer loop;
``prime_blocks`` slices the prime table at the bounds with one
``searchsorted``, and every consumer reads those blocks. A block prime
lies strictly inside (D0, D1) exactly when p > floor(D0).

The least block of n is the block of the least block prime dividing n,
which a minimum sieve over the block primes finds, one segment at a time.
The cofactor sets are read from the least primes of m <= q_max(j0),
Q_j = {1 <= m <= q_max(j): least block of m > j}, where q_max(j) is the
largest integer below N/(1+alpha)^(j+1). A UNIQUE(j) element n = p*q
lands in the product set P_j Q_j when its cofactor q <= q_max(j) (then q
automatically has no block factor at all, so the factorization map
P_j x Q_j -> P_j Q_j is one-to-one). ``build_decomposition`` sieves all
of [0, N) and classifies every n; ``product_sets``, which the bilinear
ledger reads, refuses an integer prime D0, sieves only m <= q_max(j0)
and writes P_j Q_j as the products p*q.

All bounds and counts are exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .arith import PrimeTable, sieve_primes
from .errors import CapacityError, DomainError, RangeCoverageError, ValidationError

DECOMP_BUDGET = 30_000_000
# indices per segment of the sieve: 1 MB of int32 least primes,
# which stays in a 2 MB L2 cache while every small block prime strikes it
_SPAN = 1 << 18
# indices per chunk of the classification, and products per band of the
# product sets' key: a chunk's temporaries take ~0.6 MB, and larger chunks
# are no faster
_GATHER = 1 << 14
# block primes from here on go by multiplier: any two multiply past the budget
_LARGE = math.isqrt(DECOMP_BUDGET) + 1
_SENTINEL = np.iinfo(np.int32).max  # above every prime: no block prime divides n

TAG_NOT_IN_S = 0
TAG_UNIQUE = 1
TAG_MULTIPLE = 2

_TAG_NAMES = {TAG_NOT_IN_S: "not_in_s", TAG_UNIQUE: "unique", TAG_MULTIPLE: "multiple"}


def default_schedule(alpha) -> tuple[int, int]:
    """The canonical (j0, j1) for a given alpha: j0 = ceil((1/a) ln(1/a)^3), j1 = j0^2.

    Only defined for alpha < 1/e (so ln(1/alpha) > 1). These defaults are
    astronomically large for desk N, hence every entry point accepts
    explicit overrides.
    """
    a = float(alpha)
    if not 0 < a < 1 / math.e:
        raise DomainError(f"default_schedule needs 0 < alpha < 1/e, got {alpha}")
    j0 = math.ceil((1 / a) * math.log(1 / a) ** 3)
    return j0, j0 * j0


@dataclass(frozen=True)
class DecompositionParams:
    """Window size N, ratio alpha in (0,1], and block index range.

    The block geometry, read off one loop over the integers num^j and den^j
    of 1 + alpha = num/den: ``bounds`` holds ceil((1+alpha)^j), j = j0 .. j1,
    as a read-only int64 array; ``caps`` holds q_max(j) and ``y_caps`` the
    range-extension limit floor(N/(1+alpha)^j), j = j0 .. j1-1. ``base``,
    ``d0`` and ``d1`` are exact powers computed on first access and kept;
    equality and hashing use the four fields only.
    """

    n: int
    alpha: Fraction
    j0: int
    j1: int
    bounds: np.ndarray = field(init=False, repr=False, compare=False)
    caps: tuple[int, ...] = field(init=False, repr=False, compare=False)
    y_caps: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.n < 2:
            raise ValidationError(f"need N >= 2, got {self.n}")
        if not 0 < self.alpha <= 1:
            raise ValidationError(f"need alpha in (0, 1], got {self.alpha}")
        if not 0 < self.j0 <= self.j1:
            raise ValidationError(f"need 0 < j0 <= j1, got j0={self.j0}, j1={self.j1}")
        # logarithms first: the exact (1+alpha)^j1 is out of reach far past N
        top = math.log(self.n) / max(math.log1p(self.alpha), math.ulp(0))
        if self.j1 > top * (1 + 1e-9) or self.d1 >= self.n:
            raise ValidationError(
                f"need D1 < N: D1 = (1 + {self.alpha})^{self.j1} >= N = {self.n}")
        if self.j1 > np.iinfo(np.int16).max:
            raise CapacityError(f"j1 = {self.j1} exceeds the int16 block indices")
        if self.d1 >= 2 ** 63:
            raise CapacityError(f"D1 = {float(self.d1):.6g} exceeds int64 block bounds")
        n, num, den = self.n, self.base.numerator, self.base.denominator
        num_j, den_j = num ** self.j0, den ** self.j0
        bounds, caps, y_caps = [], [], []
        for j in range(self.j0, self.j1 + 1):
            bounds.append(-(-num_j // den_j))
            q, r = divmod(n * den_j, num_j)  # N/(1+alpha)^j = q + r/num_j
            if j > self.j0:  # q_max(j-1): the largest integer below N/(1+alpha)^j
                caps.append(q if r else q - 1)
            if j < self.j1:
                y_caps.append(q)
            num_j, den_j = num_j * num, den_j * den
        bounds = np.array(bounds, dtype=np.int64)
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "caps", tuple(caps))
        object.__setattr__(self, "y_caps", tuple(y_caps))

    @cached_property
    def base(self) -> Fraction:
        return 1 + self.alpha

    @cached_property
    def d0(self) -> Fraction:
        return self.base ** self.j0

    @cached_property
    def d1(self) -> Fraction:
        return self.base ** self.j1

    @property
    def horizon(self) -> int:
        """ceil(N (1+alpha)): the range extension reads F up to here."""
        return math.ceil(self.n * self.base)

    @property
    def block_range(self) -> range:
        """Block indices j0 .. j1-1: these tile [D0, D1)."""
        return range(self.j0, self.j1)

    def q_max(self, j: int) -> int:
        """Largest admissible integer cofactor of block j: the largest
        integer m < N/(1+alpha)^(j+1)."""
        return self.caps[j - self.j0]


@dataclass(frozen=True)
class PrimeBlock:
    """Block P_j: the primes p with lo <= p < hi, a slice of the prime table.

    ``lo`` and ``hi`` are the integer bounds ceil((1+alpha)^j) and
    ceil((1+alpha)^(j+1)); for integer p they give the same half-open
    membership as the exact powers, so consecutive blocks tile their range.
    """

    j: int
    lo: int
    hi: int
    primes: np.ndarray

    def __len__(self):
        return len(self.primes)


def window_primes(params: DecompositionParams) -> PrimeTable:
    """Every prime up to ceil(D1), the top bound of the blocks."""
    return sieve_primes(int(params.bounds[-1]))


def _block_starts(params: DecompositionParams, primes: PrimeTable) -> list[int]:
    """The table index of each bound, from one ``searchsorted``: block j is
    primes.primes[starts[j - j0]:starts[j - j0 + 1]]."""
    if params.bounds[-1] > primes.n_max:
        raise RangeCoverageError(
            f"prime table covers {primes.n_max} but blocks need "
            f"(1+alpha)^{params.j1} = {float(params.d1):.6g}")
    return primes.primes.searchsorted(params.bounds).tolist()


def prime_blocks(params: DecompositionParams, primes: PrimeTable) -> list[PrimeBlock]:
    """The blocks P_j, j in ``block_range``, as slices of the prime table."""
    starts, bounds = _block_starts(params, primes), params.bounds.tolist()
    return [PrimeBlock(j, lo, hi, primes.primes[start:stop])
            for j, lo, hi, start, stop in zip(params.block_range, bounds, bounds[1:],
                                              starts, starts[1:])]


@dataclass(frozen=True)
class Classification:
    tag: int
    j: Optional[int] = None
    prime: Optional[int] = None

    @property
    def name(self) -> str:
        return _TAG_NAMES[self.tag]


def classify(n: int, params: DecompositionParams, primes: PrimeTable) -> Classification:
    """Classify a single n by direct divisibility against the block primes.

    Independent of the vectorized builder: used as its cross-check oracle.
    """
    if not 1 <= n < params.n:
        raise ValidationError(f"classify needs 1 <= n < N, got {n}")
    starts = _block_starts(params, primes)
    block_primes = primes.primes[starts[0]:starts[-1]]
    at = np.flatnonzero(n % block_primes == 0)  # the divisors, ascending
    found = block_primes[at].tolist()
    # a block prime lies outside (D0, D1) only when it equals an integer D0
    if not found or found == [params.d0]:
        return Classification(TAG_NOT_IN_S)
    # block of each divisor: j - j0 + 1 is the number of starts at or below it
    pos = np.searchsorted(starts, at + starts[0], side="right").tolist()
    least, witness = params.j0 + pos[0] - 1, found[0]
    if pos.count(pos[0]) == 1 and n % (witness * witness) != 0:
        return Classification(TAG_UNIQUE, least, witness)
    return Classification(TAG_MULTIPLE, least)


def q_membership(m: int, j: int, params: DecompositionParams,
                 primes: PrimeTable) -> bool:
    """m lies in Q_j: m < N/(1+alpha)^(j+1) and no block P_i with i <= j divides m."""
    if m < 1:
        raise ValidationError(f"q_membership needs m >= 1, got {m}")
    if j not in params.block_range:
        raise ValidationError(f"block index {j} outside {params.block_range}")
    if m > params.q_max(j):
        return False
    starts = _block_starts(params, primes)
    block_primes = primes.primes[starts[0]:starts[j - params.j0 + 1]]
    return not np.count_nonzero(m % block_primes == 0)


class _BlockSets:
    """The blocks P_j of a window and its cofactor sets: ``q_sets[j]`` holds
    Q_j as ascending int32."""

    def __init__(self, params, blocks, q_sets):
        self.params = params
        self.blocks = blocks
        self.q_sets = q_sets

    def q_set(self, j: int) -> np.ndarray:
        return self.q_sets[j]

    def block(self, j: int) -> PrimeBlock:
        return self.blocks[j - self.params.j0]


class ProductSets(_BlockSets):
    """What the bilinear ledger reads of a decomposition: the blocks, Q_j
    and ``key``, per n in [0, N), j - j0 + 1 on P_j Q_j and 0 elsewhere
    (int8, or int16 past 126 blocks), from ``product_sets``."""

    def __init__(self, params, blocks, key, q_sets):
        super().__init__(params, blocks, q_sets)
        self.key = key
        key.setflags(write=False)


class Decomposition(_BlockSets):
    """Classification arrays and exact counts for the whole window [1, N).

    Per n: ``tags`` (int8), ``block_of`` (int16, the least block, -1 outside
    S), ``unique_prime`` (int32, the one block prime of a unique n, else 0;
    N <= DECOMP_BUDGET = 3e7 < 2^31, so every block prime fits) and
    ``in_pq`` (bool): four separate arrays, 8 B/n, and Q_j. Every count reads
    ``tally``, counted as the builder writes the arrays: how many n in
    [0, N) fall in each (row, state), a read-only (j1 + 1, 4) int64 array
    with row block_of + 1 (0 outside S, j + 1 for block j) and state 0
    outside S, 1 unique outside P_j Q_j, 2 multiple, 3 in P_j Q_j (unique
    by construction). n = 0 counts in (0, 0).
    """

    def __init__(self, params, blocks, tags, block_of, unique_prime, in_pq, q_sets,
                 tally):
        super().__init__(params, blocks, q_sets)
        self.tags = tags
        self.block_of = block_of
        self.unique_prime = unique_prime
        self.in_pq = in_pq
        self.tally = tally
        for arr in (tags, block_of, unique_prime, in_pq, tally):
            arr.setflags(write=False)

    # -- per-n views ----------------------------------------------------
    def classification(self, n: int) -> Classification:
        tag = int(self.tags[n])
        if tag == TAG_NOT_IN_S:
            return Classification(tag)
        j = int(self.block_of[n])
        p = int(self.unique_prime[n]) if tag == TAG_UNIQUE else None
        return Classification(tag, j, p)

    # -- exact counts -----------------------------------------------------
    @property
    def window_size(self) -> int:
        return self.params.n - 1

    @property
    def count_not_in_s(self) -> int:
        return int(self.tally[0, 0]) - 1  # n = 0 is not in the window

    @property
    def count_s(self) -> int:
        return self.window_size - self.count_not_in_s

    @property
    def count_multiple(self) -> int:
        return int(self.tally[:, 2].sum())

    @property
    def count_pq(self) -> int:
        return int(self.tally[:, 3].sum())

    @property
    def leftover_count(self) -> int:
        return self.window_size - self.count_pq


def _block_primes(params: DecompositionParams, primes: PrimeTable):
    """The block primes split into (boundary, small, large): p <= floor(D0),
    only an integer prime D0, outside (D0, D1); p < _LARGE; the rest."""
    starts = _block_starts(params, primes)
    block_primes = primes.primes[starts[0]:starts[-1]]
    a, b = block_primes.searchsorted((math.floor(params.d0) + 1, _LARGE))
    return block_primes[:a], block_primes[a:max(a, b)], block_primes[max(a, b):]


def _strike(least: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """least[n - lo] = min(least[n - lo], p) on the multiples n >= max(lo, p)
    of each p, one strided ``np.minimum`` per prime."""
    for p in primes.tolist():
        first = max(lo, p)
        view = least[first - lo + -first % p::p]
        np.minimum(view, p, out=view)


def _sieve(least: np.ndarray, in_s: np.ndarray, lo: int, boundary: np.ndarray,
           small: np.ndarray, large: np.ndarray) -> None:
    """least[i] = the least block prime dividing lo + i (_SENTINEL if none)
    and in_s[i] = whether a block prime above floor(D0) divides it.

    A large prime p (p >= _LARGE) goes by multiplier k, one scatter per k
    of the p with lo <= k p < lo + least.size. Two large primes multiply
    past DECOMP_BUDGET, so no n below it has two large prime factors: the
    scatters never meet, and they come first. The small primes then take
    their minimum, and the ``boundary`` prime (an integer D0) comes after
    in_s is read off.
    """
    least.fill(_SENTINEL)
    hi = lo + least.size
    if large.size:
        ks = np.arange(max(1, lo // int(large[-1])), (hi - 1) // int(large[0]) + 1)
        starts, stops = large.searchsorted(-(-lo // ks)), large.searchsorted(-(-hi // ks))
        for k, a, b in zip(ks.tolist(), starts.tolist(), stops.tolist()):
            if a < b:
                least[k * large[a:b] - lo] = large[a:b]
    _strike(least, lo, small)
    np.less(least, _SENTINEL, out=in_s)
    _strike(least, lo, boundary)


def _q_sets(params: DecompositionParams, blocks: list[PrimeBlock],
            lookup: np.ndarray) -> dict:
    """Q_j = {1 <= m <= q_max(j): least block of m > j}, from the lookup,
    as ascending int32 (every m is below N <= DECOMP_BUDGET < 2^31)."""
    return {block.j: np.flatnonzero(lookup[1:cap + 1] >= hi).astype(np.int32) + 1
            for block, hi, cap in zip(blocks, params.bounds[1:].tolist(), params.caps)}


def _check_budget(params: DecompositionParams) -> None:
    if params.n > DECOMP_BUDGET:
        raise CapacityError(f"N={params.n} exceeds decomposition budget {DECOMP_BUDGET}")


def build_decomposition(params: DecompositionParams, primes: PrimeTable) -> Decomposition:
    """Classify every n in [1, N) and mark the product sets, by sieving.

    Each _SPAN segment of [0, N) is sieved straight into ``unique_prime``
    and ``tags``, then classified in chunks of _GATHER indices by the
    cofactor q = n/p of the least block prime p, in block j: n in S is
    unique exactly when the least block prime of q lies above block j, and
    in P_j Q_j when also q <= q_max(j). q < n is read from ``unique_prime``,
    already sieved, which is masked to the unique primes once the pass is
    done and Q_j read off. q is taken in float64, which is exact: p divides
    n (else p is the sentinel and q = 0) and both are below 2^53. Beyond
    its outputs the builder holds one chunk's temporaries and the block
    tables, and it counts the tally as it writes each chunk.
    """
    _check_budget(params)
    n, j0, bounds = params.n, params.j0, params.bounds
    blocks = prime_blocks(params, primes)
    boundary, small, large = _block_primes(params, primes)
    # rank of each integer in [bounds[0], bounds[-1]] (the sentinel clips
    # to j1 - j0 + 1) and, by rank, the least prime a unique cofactor can
    # have and q_max(j)
    ranks = np.repeat(np.arange(1, bounds.size + 1, dtype=np.int16),
                      np.diff(bounds, append=bounds[-1] + 1))
    above = np.append(bounds, _SENTINEL).astype(np.int32)
    caps = np.array((0,) + params.caps + (0,), dtype=np.int32)
    ramp = np.arange(min(n, _GATHER), dtype=np.float64)
    # four allocations: one shared 8 B/n buffer took bench bilinear's peak RSS 113 -> 127 MB
    unique_prime, block_of = np.empty(n, np.int32), np.empty(n, np.int16)
    tags, in_pq = np.empty(n, np.int8), np.empty(n, bool)
    tally = np.zeros(4 * (params.j1 + 1), dtype=np.int64)
    for lo in range(0, n, _SPAN):
        least, in_s = unique_prime[lo:lo + _SPAN], tags[lo:lo + _SPAN].view(bool)
        _sieve(least, in_s, lo, boundary, small, large)
        for at in range(0, least.size, _GATHER):
            p, ins = least[at:at + _GATHER], in_s[at:at + _GATHER]
            chunk = slice(lo + at, lo + at + p.size)
            rank = ranks.take(p - bounds[0], mode="clip")
            q = ((ramp[:p.size] + chunk.start) / p).astype(np.intp)
            # q and rank are in range: "wrap" only skips the bounds check
            unique = (unique_prime.take(q, mode="wrap") >= above.take(rank, mode="wrap")) & ins
            pq = (q <= caps.take(rank, mode="wrap")) & unique
            in_pq[chunk] = pq
            block = block_of[chunk]
            np.add(rank, j0, out=block)  # int16 wraps, so j1 + 1 is safe
            block *= ins
            block -= 1
            tag = ins.view(np.int8)
            tag += tag  # TAG_MULTIPLE = 2 on S, less one where n is unique
            tag -= unique.view(np.int8)
            # cell 4 (block_of + 1) + state, with state tag + 2 in_pq < 4
            tally += np.bincount(4 * block.astype(np.intp) + (tag + 2 * pq.view(np.int8) + 4),
                                 minlength=tally.size)
    del ramp, ranks, rank, q, unique, pq  # Q_j is read off with only the outputs held
    q_sets = _q_sets(params, blocks, unique_prime)
    for lo in range(0, n, _GATHER):
        chunk = slice(lo, lo + _GATHER)
        unique_prime[chunk] *= tags[chunk] == TAG_UNIQUE
    return Decomposition(params, blocks, tags, block_of, unique_prime, in_pq, q_sets,
                         tally.reshape(-1, 4))


def product_sets(params: DecompositionParams, primes: PrimeTable) -> ProductSets:
    """The blocks, Q_j and the product-set key of every n in [0, N).

    Q_j is read off the least block primes of m <= q_max(j0), sieved one
    _SPAN segment at a time. The key is j - j0 + 1 at p q for each prime p
    of block j and q in Q_j, written in bands of at most _GATHER products:
    q has no block prime in block j or below, so each n in P_j Q_j is p q
    for one pair only. An integer prime D0 is refused: it lies outside
    (D0, D1), so D0 q is in P_j0 Q_j0 only for q in S, and block j0 does
    not factor.
    """
    if params.d0.denominator == 1 and primes.contains(params.d0.numerator):
        raise ValidationError(f"D0 = (1 + {params.alpha})^{params.j0} = {params.d0} is a prime "
                              f"outside (D0, D1): block j0 = {params.j0} does not factor")
    _check_budget(params)
    blocks = prime_blocks(params, primes)
    boundary, small, large = _block_primes(params, primes)  # boundary is empty here
    lookup = np.empty(params.caps[0] + 1 if params.caps else 0, dtype=np.int32)
    in_s = np.empty(min(lookup.size, _SPAN), dtype=bool)
    for lo in range(0, lookup.size, _SPAN):
        least = lookup[lo:lo + _SPAN]
        _sieve(least, in_s[:least.size], lo, boundary, small, large)
    q_sets = _q_sets(params, blocks, lookup)
    del lookup, in_s
    key = np.zeros(params.n, dtype=np.int8 if len(blocks) < np.iinfo(np.int8).max
                   else np.int16)
    for rank, block in enumerate(blocks, 1):
        ps, qs = block.primes, q_sets[block.j]
        rows = max(1, _GATHER // max(qs.size, 1))
        for a in range(0, ps.size, rows):
            for b in range(0, qs.size, _GATHER):
                key[np.multiply.outer(ps[a:a + rows], qs[b:b + _GATHER])] = rank
    return ProductSets(params, blocks, key, q_sets)


@dataclass(frozen=True)
class CoverageLine:
    """One measured count against the corresponding reference fraction of N."""

    name: str
    measured: int
    reference: float

    @property
    def holds(self) -> bool:
        return self.measured <= self.reference

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "reference": repr(self.reference), "holds": self.holds}


@dataclass(frozen=True)
class CoverageReport:
    params: DecompositionParams
    lines: list[CoverageLine]
    mertens_product: float
    complement_fraction: Fraction
    leftover_fraction: Fraction
    schedule_reference: float  # 1/j0, the asymptotic value of the product
    boundary_primes: list[int]
    counts: dict = field(default_factory=dict)

    def line(self, name: str) -> CoverageLine:
        for ln in self.lines:
            if ln.name == name:
                return ln
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "n": self.params.n,
            "alpha": str(self.params.alpha),
            "j0": self.params.j0,
            "j1": self.params.j1,
            "d0": repr(float(self.params.d0)),
            "d1": repr(float(self.params.d1)),
            "lines": [ln.as_dict() for ln in self.lines],
            "mertens_product": repr(self.mertens_product),
            "schedule_reference": repr(self.schedule_reference),
            "complement_fraction": f"{self.complement_fraction.numerator}/"
                                   f"{self.complement_fraction.denominator}",
            "leftover_fraction": f"{self.leftover_fraction.numerator}/"
                                 f"{self.leftover_fraction.denominator}",
            "boundary_primes": self.boundary_primes,
            "counts": self.counts,
        }


def coverage_report(d: Decomposition, primes: PrimeTable) -> CoverageReport:
    """Exact measured coverage counts next to the alpha*N reference lines.

    The alpha, alpha, 2*alpha, 3*alpha fractions are asymptotic references
    only; each line records whether it already holds at this finite N.
    """
    params = d.params
    n = params.n
    a = float(params.alpha)
    per_block = d.tally[params.j0 + 1:].tolist()
    unfactored = sum(row[1] for row in per_block)
    lines = [
        CoverageLine("complement_of_s", d.count_not_in_s, a * n),
        CoverageLine("multi_divisor_excess", d.count_multiple, a * n),
        CoverageLine("unfactored_tail", unfactored, 2 * a * n),
        CoverageLine("uncovered_total", d.leftover_count, 3 * a * n),
    ]
    boundary, small, large = _block_primes(params, primes)
    boundary = boundary.tolist()
    product = math.prod((1 - 1 / p for part in (small, large) for p in part.tolist()),
                        start=1.0)
    if params.d1.denominator == 1 and primes.contains(params.d1.numerator):
        boundary.append(params.d1.numerator)
    counts = {
        "window": d.window_size,
        "not_in_s": d.count_not_in_s,
        "in_s": d.count_s,
        "multiple": d.count_multiple,
        "product_sets": d.count_pq,
        "leftover": d.leftover_count,
        "per_block": {
            str(j): {"primes": len(d.block(j)), "q": len(d.q_set(j)),
                     "s_j": row[1] + row[3], "pq_j": row[3], "multiple_j": row[2]}
            for j, row in zip(params.block_range, per_block)
        },
    }
    return CoverageReport(
        params=params,
        lines=lines,
        mertens_product=product,
        complement_fraction=Fraction(d.count_not_in_s, d.window_size),
        leftover_fraction=Fraction(d.leftover_count, d.window_size),
        schedule_reference=1 / params.j0,
        boundary_primes=boundary,
        counts=counts,
    )
