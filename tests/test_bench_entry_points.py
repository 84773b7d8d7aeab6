"""The library names and inputs the benchmark under ``bench/`` relies on.

The benchmark's span recorder replaces each of its targets in the
``__dict__`` of the module or class that owns it, its ``bilinear``
workload calls ``criterion_ledger`` with ``threads=1``, and its workloads
hand fixed descriptor strings to the CLI parsers; a rename, a removed
keyword or a parser that stops reading one of those strings would break
the benchmark, not this suite, without these checks.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from horomu import cli
from horomu.arith import sieve_mobius
from horomu.correlator import classify_correlator
from horomu.criterion import BoundedSequence, criterion_ledger

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_owned(monkeypatch):
    for name, owner, attr, _ in _load(monkeypatch, "spans").TARGETS:
        assert attr in owner.__dict__, name


def test_every_workload_constant_parses(monkeypatch):
    # each constant as an exp: angle and a point entry, each descriptor as a
    # generic boundary point, checked against the benchmark's mpmath values
    constants = _load(monkeypatch, "workloads").CONSTANTS
    assert constants
    for key, (descriptor, value) in constants.items():
        with mp.workprec(128):
            c = value()
            want = [complex(mp.expjpi(2 * mp.frac(n * c))) for n in range(1, 200)]
        F = cli.parse_sequence(f"exp:theta={key}", 199)
        assert max(abs(F.eval(n) - w) for n, w in enumerate(want, 1)) < 1e-12, key
        xi = cli.parse_point(f"point:lower:t={key}")
        assert float(xi.entries[2]) == pytest.approx(float(c), rel=1e-15), key
        z = cli.parse_descriptor(descriptor)
        assert z.kind in ("quadratic", "irrational"), descriptor
        assert not classify_correlator(z).is_full, descriptor


def test_criterion_ledger_ignores_threads():
    n, alpha = 4000, Fraction(3, 10)
    F = BoundedSequence.exponential("sqrt2", 5200)
    args = (sieve_mobius(n), F, n, alpha, 5, 10)
    assert (criterion_ledger(*args, cutoff=20.0, M=None, threads=1).as_dict()
            == criterion_ledger(*args, cutoff=20.0).as_dict())
