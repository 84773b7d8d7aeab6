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
which one minimum sieve over the block primes finds. The cofactor sets are
read from the same array, Q_j = {1 <= m <= q_max(j): least block of
m > j}, where q_max(j) is the largest integer below N/(1+alpha)^(j+1). A
UNIQUE(j) element n = p*q lands in the product set P_j Q_j when its
cofactor q <= q_max(j) (then q automatically has no block factor at all,
so the factorization map P_j x Q_j -> P_j Q_j is one-to-one).

All bounds and counts are exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .arith import SEGMENT, PrimeTable
from .errors import CapacityError, DomainError, RangeCoverageError, ValidationError

DECOMP_BUDGET = 30_000_000
# indices per chunk of the builder's pass: its buffers take ~0.7 MB, and
# larger chunks are no faster
_GATHER = 1 << 14

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


class Decomposition:
    """Classification arrays and exact counts for the whole window [1, N).

    Per n: ``tags`` (int8), ``block_of`` (int16, the least block, -1 outside
    S), ``unique_prime`` (int32, the one block prime of a unique n, else 0;
    N <= DECOMP_BUDGET = 3e7 < 2^31, so every block prime fits) and
    ``in_pq`` (bool). ``q_sets[j]`` holds Q_j as ascending int64. Every
    count reads ``tally``.
    """

    def __init__(self, params, blocks, tags, block_of, unique_prime, in_pq, q_sets):
        self.params = params
        self.blocks = blocks
        self.tags = tags
        self.block_of = block_of
        self.unique_prime = unique_prime
        self.in_pq = in_pq
        self.q_sets = q_sets  # j -> sorted array of Q_j members
        for arr in (tags, block_of, unique_prime, in_pq):
            arr.setflags(write=False)

    # -- per-n views ----------------------------------------------------
    def classification(self, n: int) -> Classification:
        tag = int(self.tags[n])
        if tag == TAG_NOT_IN_S:
            return Classification(tag)
        j = int(self.block_of[n])
        p = int(self.unique_prime[n]) if tag == TAG_UNIQUE else None
        return Classification(tag, j, p)

    def q_set(self, j: int) -> np.ndarray:
        return self.q_sets[j]

    def block(self, j: int) -> PrimeBlock:
        return self.blocks[j - self.params.j0]

    # -- exact counts -----------------------------------------------------
    @cached_property
    def tally(self) -> np.ndarray:
        """How many n in [0, N) fall in each (row, state), as a read-only
        (j1 + 1, 4) int64 array: row block_of + 1 (0 outside S, j + 1 for
        block j), state 0 outside S, 1 unique outside P_j Q_j, 2 multiple,
        3 in P_j Q_j (unique by construction). n = 0 counts in (0, 0). One
        bincount per SEGMENT, so the temporaries stay O(SEGMENT) at any N."""
        rows = self.params.j1 + 1
        tally = np.zeros(4 * rows, dtype=np.int64)
        for lo in range(0, self.params.n, SEGMENT):
            seg = slice(lo, lo + SEGMENT)
            state = self.tags[seg] + 2 * self.in_pq[seg].view(np.int8)
            tally += np.bincount(4 * (self.block_of[seg].astype(np.intp) + 1) + state,
                                 minlength=tally.size)
        tally = tally.reshape(rows, 4)
        tally.setflags(write=False)
        return tally

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


def _sieve_least(least: np.ndarray, block_primes: np.ndarray) -> None:
    """least[m] = min(least[m], p) on the multiples m of each p, in place."""
    for p in block_primes.tolist():
        view = least[p::p]
        np.minimum(view, p, out=view)


def build_decomposition(params: DecompositionParams, primes: PrimeTable) -> Decomposition:
    """Classify every n in [1, N) and mark the product sets, by sieving.

    ``unique_prime`` first holds the least block prime dividing n, one
    strided ``np.minimum`` per block prime. A minimum does not depend on
    order, so S is read off before the one block prime that can equal an
    integer D0 is sieved, and Q_j = {1 <= m <= q_max(j): least block of
    m > j} after. One pass over [0, N) then reads off the rest. With p the
    least block prime of n, j its block and q = n/p, q has no block prime
    below block j, so n in S is unique exactly when the least block prime
    of q lies above block j (no second block-j prime and no p^2 divides
    n), and in P_j Q_j when also q <= q_max(j). The chunks run downward
    and q < n, so unique_prime is read at q before it is masked there. All
    of it is exact integer work but q = n/p in float64, exact too: p divides
    n (else p is the sentinel and q = 0), and an integer quotient of
    integers below 2^53 rounds to itself.
    """
    n = params.n
    if n > DECOMP_BUDGET:
        raise CapacityError(f"N={n} exceeds decomposition budget {DECOMP_BUDGET}")
    blocks = prime_blocks(params, primes)

    j0, bounds = params.j0, params.bounds
    sentinel = np.iinfo(np.int32).max  # above every prime: no block prime divides n
    unique_prime = np.full(n, sentinel, dtype=np.int32)
    d0_floor = math.floor(params.d0)
    for block in blocks:
        _sieve_least(unique_prime, block.primes[block.primes > d0_floor])
    tags = np.less(unique_prime, sentinel).view(np.int8)  # in S, as 0/1
    for block in blocks[:1]:  # a prime integer D0 opens the first block
        _sieve_least(unique_prime, block.primes[block.primes <= d0_floor])
    q_sets = {block.j: np.flatnonzero(unique_prime[1:cap + 1] >= hi) + 1
              for block, hi, cap in zip(blocks, bounds[1:].tolist(), params.caps)}

    # the block of each integer in [bounds[0], bounds[-1]] (the sentinel
    # clips to j1) and, per block k = j - j0, the least prime a unique
    # cofactor can have and q_max(j)
    block_table = np.repeat(np.arange(j0, params.j1 + 1, dtype=np.int16),
                            np.diff(bounds, append=bounds[-1] + 1))
    above = np.append(bounds[1:], sentinel).astype(np.int32)
    caps = np.array(params.caps + (0,), dtype=np.int32)
    block_of, in_pq = np.empty(n, dtype=np.int16), np.empty(n, dtype=bool)
    ramp = np.arange(min(n, _GATHER), dtype=np.float64)
    buffers = [np.empty(ramp.size, dtype=t)
               for t in (float, np.intp, np.intp, np.int32, np.int32, bool)]
    for lo in reversed(range(0, n, _GATHER)):
        chunk = slice(lo, lo + _GATHER)
        p, block, in_s, pq = unique_prime[chunk], block_of[chunk], tags[chunk], in_pq[chunk]
        ratio, k, q, least_q, limit, unique = (b[:p.size] for b in buffers)
        np.subtract(p, bounds[0], out=k)
        block_table.take(k, out=block, mode="clip")
        np.subtract(block, j0, out=k)
        np.add(ramp[:p.size], lo, out=ratio)
        ratio /= p
        np.copyto(q, ratio, casting="unsafe")
        # q and k are in range: "wrap" only skips the bounds check
        unique_prime.take(q, out=least_q, mode="wrap")
        above.take(k, out=limit, mode="wrap")
        np.greater_equal(least_q, limit, out=unique)
        unique &= in_s.view(bool)
        caps.take(k, out=limit, mode="wrap")
        np.less_equal(q, limit, out=pq)
        pq &= unique
        block += 1  # int16 wraps, so j1 + 1 is safe
        block *= in_s
        block -= 1
        p *= unique
        in_s += in_s  # TAG_MULTIPLE = 2 on S, less one where n is unique
        in_s -= unique.view(np.int8)

    return Decomposition(params, blocks, tags, block_of, unique_prime, in_pq, q_sets)


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
    # every block prime is at least ceil(D0), so p <= floor(D0) only for a
    # prime integer D0, which is not strictly inside (D0, D1)
    d0_floor = math.floor(params.d0)
    block_primes = [p for b in d.blocks for p in b.primes.tolist()]
    boundary = [p for p in block_primes if p <= d0_floor]
    product = math.prod((1 - 1 / p for p in block_primes if p > d0_floor), start=1.0)
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
