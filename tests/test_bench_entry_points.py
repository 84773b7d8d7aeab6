"""The library names the benchmark under ``bench/`` calls or wraps by name.

The benchmark's span recorder replaces each of its targets in the
``__dict__`` of the module or class that owns it, and its ``bilinear``
workload calls ``criterion_ledger`` with ``threads=1``; a rename or a
removed keyword in the library would break the benchmark, not this suite,
without these checks.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from horomu.arith import sieve_mobius
from horomu.criterion import BoundedSequence, criterion_ledger

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_span_target_is_owned(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    for name, owner, attr, _ in spans.TARGETS:
        assert attr in owner.__dict__, name


def test_criterion_ledger_ignores_threads():
    n, alpha = 4000, Fraction(3, 10)
    F = BoundedSequence.exponential("sqrt2", 5200)
    args = (sieve_mobius(n), F, n, alpha, 5, 10)
    assert (criterion_ledger(*args, cutoff=20.0, M=None, threads=1).as_dict()
            == criterion_ledger(*args, cutoff=20.0).as_dict())
