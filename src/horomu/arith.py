"""Sieves and tables for primes and bounded multiplicative functions.

All tables are immutable numpy arrays built by single-writer segmented
sieves; every construction is deterministic (no probabilistic primality
anywhere) so downstream reports reproduce bit-for-bit.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import CapacityError, RangeCoverageError, ReportIOError, ValidationError

# Memory budget: one-byte values allow tables up to ~1e8 entries.
SIEVE_BUDGET = 200_000_000
SEGMENT = 1 << 20


def check_unit_bound(values: np.ndarray, label: str) -> None:
    """Reject NaN, infinity or |value| > 1 + 1e-12 in values[1:].

    Works one SEGMENT at a time, so no full-length temporary is made.
    """
    for lo in range(1, values.size, SEGMENT):
        top = float(np.abs(values[lo:lo + SEGMENT]).max())
        if not top <= 1 + 1e-12:  # NaN propagates through max and fails here
            raise ValidationError(f"{label}: values must be finite with |value| <= 1, "
                                  f"found {top}")


class PrimeTable:
    """Sorted primes up to ``n_max``; read-only after construction."""

    def __init__(self, n_max: int, primes: np.ndarray):
        self.n_max = int(n_max)
        self.primes = primes
        self.primes.setflags(write=False)

    def __len__(self):
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def contains(self, p: int) -> bool:
        i = int(np.searchsorted(self.primes, p))
        return i < len(self.primes) and int(self.primes[i]) == p

    def __repr__(self):
        return f"PrimeTable(n_max={self.n_max}, count={len(self.primes)})"


def sieve_primes(n_max: int) -> PrimeTable:
    """All primes <= n_max by a segmented sieve of Eratosthenes."""
    n_max = int(n_max)
    if n_max < 2:
        raise ValidationError(f"sieve_primes requires n_max >= 2, got {n_max}")
    if n_max > SIEVE_BUDGET:
        raise CapacityError(f"n_max={n_max} exceeds sieve budget {SIEVE_BUDGET}")
    root = math.isqrt(n_max)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i:: i] = False
    small = np.nonzero(base)[0].astype(np.int64)
    chunks = [small[small <= n_max]]
    lo = root + 1
    while lo <= n_max:
        hi = min(lo + SEGMENT, n_max + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in small:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start < p * p:
                start = p * p
            if start < hi:
                seg[start - lo:: p] = False
        chunks.append(np.nonzero(seg)[0].astype(np.int64) + lo)
        lo = hi
    return PrimeTable(n_max, np.concatenate(chunks))


class MultiplicativeTable:
    """Values of a bounded multiplicative function on [1, n_max].

    mu and lambda are stored as int8; general complex tables use
    complex128. Index 0 is unused and holds 0.
    """

    def __init__(self, n_max: int, values: np.ndarray, label: str):
        self.n_max = int(n_max)
        self.values = values
        self.label = label
        self.values.setflags(write=False)
        if values.shape != (self.n_max + 1,):
            raise ValidationError("values array must have length n_max+1")
        if self.n_max >= 1 and complex(values[1]) != 1:
            raise ValidationError(f"{label}: a multiplicative table needs value(1) = 1")
        if values.dtype == np.int8:
            if values.size > 1 and (int(values.min()) < -1 or int(values.max()) > 1):
                raise ValidationError(f"{label}: values must satisfy |value| <= 1")
        else:
            check_unit_bound(values, label)

    def value(self, n: int):
        if not 1 <= n <= self.n_max:
            raise RangeCoverageError(f"{self.label} table covers [1,{self.n_max}], got {n}")
        v = self.values[n]
        return int(v) if self.values.dtype == np.int8 else complex(v)

    @classmethod
    def from_csv(cls, path, label: str = "table") -> "MultiplicativeTable":
        """Read a header ``n,value`` and then one row per integer n >= 1.

        Blank lines are skipped and an n without a row reads as 0. An
        unreadable file raises ReportIOError; a malformed header or row, or
        a repeated n, raises ValidationError naming the path and line.
        """
        rows = {}
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                if [h.strip() for h in header[:2]] != ["n", "value"]:
                    raise ValidationError(f"{path}: expected header n,value")
                for row in reader:
                    if not row:
                        continue
                    try:
                        n, v = int(row[0]), complex(row[1])
                        bad = n < 1 or n in rows
                    except (IndexError, ValueError):
                        bad = True
                    if bad:
                        raise ValidationError(
                            f"{path} line {reader.line_num}: expected an integer "
                            f"n >= 1 not seen before and a value, got {row}")
                    rows[n] = v
        except OSError as exc:
            raise ReportIOError(f"cannot read table {path}: {exc}") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: not a CSV table ({exc})") from None
        if not rows:
            raise ValidationError(f"{path}: empty table")
        n_max = max(rows)
        if n_max > SIEVE_BUDGET:
            raise CapacityError(f"{path}: n = {n_max} exceeds table budget {SIEVE_BUDGET}")
        values = np.zeros(n_max + 1, dtype=np.complex128)
        values[list(rows)] = list(rows.values())
        return cls(n_max, values, label)

    def __repr__(self):
        return f"MultiplicativeTable({self.label}, n_max={self.n_max})"


def _sieved_signs(n_max: int, liouville: bool) -> np.ndarray:
    """Segmented sign sieve shared by mu and lambda.

    Works in place on one SEGMENT of the output at a time. For each prime
    power p^k <= n_max with p <= sqrt(n_max), the multiples in the segment
    start at offset -lo % p^k and are one strided slice: lambda flips their
    sign at every power, mu flips it at p and zeroes it at p^2. ``prod``
    multiplies p into the same slices, so it ends as the part of n made of
    small primes; n has one prime factor > sqrt(n_max) exactly when
    prod < n, and its sign flips once more, as a factor of -1. No step
    scatters through an index or boolean mask, and every step is integer,
    so the table does not depend on SEGMENT.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError(f"sieve requires n_max >= 1, got {n_max}")
    if n_max > SIEVE_BUDGET:
        raise CapacityError(f"n_max={n_max} exceeds sieve budget {SIEVE_BUDGET}")
    small = sieve_primes(max(math.isqrt(n_max), 2)).primes.tolist()
    out = np.ones(n_max + 1, dtype=np.int8)
    out[0] = 0
    for lo in range(1, n_max + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_max + 1)
        seg = out[lo:hi]
        prod = np.ones(hi - lo, dtype=np.int32)  # prod <= n <= SIEVE_BUDGET < 2^31
        for p in small:
            if p >= hi:
                break
            pk = p
            while pk < hi:
                s = -lo % pk
                view = seg[s::pk]
                if liouville or pk == p:
                    np.negative(view, out=view)
                else:  # mu: p^2 divides n
                    view[...] = 0
                    break
                prod_view = prod[s::pk]
                prod_view *= p
                pk *= p
        # a factor -1 where a prime factor > sqrt(n_max) remains, else 1
        flip = (prod < np.arange(lo, hi, dtype=np.int32)).view(np.int8)
        flip *= -2
        flip += 1
        seg *= flip
    return out


def sieve_mobius(n_max: int) -> MultiplicativeTable:
    """mu(n) for n in [1, n_max]: (-1)^k on squarefree n with k prime factors, else 0."""
    return MultiplicativeTable(n_max, _sieved_signs(n_max, liouville=False), "mobius")


def sieve_liouville(n_max: int) -> MultiplicativeTable:
    """lambda(n) = (-1)^Omega(n), counting prime factors with multiplicity."""
    return MultiplicativeTable(n_max, _sieved_signs(n_max, liouville=True), "liouville")
