"""In-memory span recorder around the public calls into each horomu module.

Spans are recorded from the benchmark's side only: while an ``instrument``
block is open, each traced function is replaced by a wrapper in every
module (or class) that binds it, so nested calls such as
``criterion_ledger -> tau_estimate`` and ``mobius_disjointness_sum ->
haar_mean`` are caught where the library looks them up. Leaving the block
restores the originals, so untraced operations run the library unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import horomu
from horomu import arith, cli, correlator, criterion, decomp, dynamics, exactreal


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Spans of one operation, in call order; ``parent`` indexes ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), parent=parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def as_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self": t, "counts": s.counts}
                for s, t in zip(self.spans, self.self_times())]


# ---------------------------------------------------------------------------
# what is traced, and the work counted at each boundary
# ---------------------------------------------------------------------------

def _sieved(args, kwargs, table):
    return {"n": int(table.n_max)}


def _decomposition(args, kwargs, dec):
    arrays = [dec.tags, dec.block_of, dec.unique_prime, dec.in_pq,
              *dec.q_sets.values()]
    return {"n": dec.params.n, "nbytes": int(sum(a.nbytes for a in arrays)),
            "pq": dec.count_pq, "window": dec.window_size}


def _tau(args, kwargs, est):
    return {"pairs": len(est.pairs), "products": int(sum(p.m for p in est.pairs))}


def _orbit(args, kwargs, result):
    return {"points": len(result[0]), "bits": int(args[0].bits)}


def _quadrature(args, kwargs, mean):
    f = args[0]
    quad = args[1] if len(args) > 1 else kwargs.get("quad", dynamics.QuadratureSpec())
    nodes = quad.nx * quad.nv * (quad.ntheta if f.kind == "frame" else 1)
    return {"nodes": nodes}


# (span name, owner holding the original, attribute, counter)
TARGETS = [
    ("arith.sieve_mobius", arith, "sieve_mobius", _sieved),
    ("arith.sieve_primes", arith, "sieve_primes", _sieved),
    ("decomp.build_decomposition", decomp, "build_decomposition", _decomposition),
    ("decomp.coverage_report", decomp, "coverage_report", None),
    ("criterion.sequence", criterion.BoundedSequence, "exponential", None),
    ("exactreal.frac_parts", exactreal, "frac_parts", None),
    ("criterion.tau_estimate", criterion, "tau_estimate", _tau),
    ("criterion.criterion_ledger", criterion, "criterion_ledger", None),
    ("dynamics.orbit_run", dynamics.OrbitEvaluator, "run", _orbit),
    ("dynamics.haar_mean", dynamics, "haar_mean", _quadrature),
    ("correlator.classify_correlator", correlator, "classify_correlator", None),
]

# Modules that may bind a traced function under its own name.
BINDING_MODULES = [horomu, arith, cli, correlator, criterion, decomp, dynamics,
                   exactreal]


@contextmanager
def instrument(recorder: Recorder):
    """Route every binding of the traced functions through ``recorder``."""
    patched = []  # (holder, attribute, original object in holder.__dict__)
    try:
        for name, owner, attr, count in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched.append((owner, attr, raw))
                setattr(owner, attr,
                        classmethod(recorder.wrap(name, raw.__func__, count)))
                continue
            wrapped = recorder.wrap(name, raw, count)
            holders = [owner] if isinstance(owner, type) else [
                m for m in BINDING_MODULES if m.__dict__.get(attr) is raw]
            for holder in holders:
                patched.append((holder, attr, raw))
                setattr(holder, attr, wrapped)
        yield recorder
    finally:
        for holder, attr, raw in reversed(patched):
            setattr(holder, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced operation
# ---------------------------------------------------------------------------

LAYERS = ("arith", "decomp", "criterion", "exactreal", "dynamics", "correlator")


def layer_self_times(recorder: Recorder) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(recorder.spans, recorder.self_times()):
        out[span.layer] += t
    return out


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics that spans and their counts give directly."""
    spans = recorder.spans
    selfs = recorder.self_times()

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def counted(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    builds = named("decomp.build_decomposition")
    build = builds[-1].counts if builds else {}
    runs = named("dynamics.orbit_run")
    points = counted("dynamics.orbit_run", "points")
    return {
        "arith.sieve_s": layer_self_times(recorder)["arith"],
        "arith.sieved_n": counted("arith.sieve_mobius", "n")
        + counted("arith.sieve_primes", "n"),
        "decomp.build_s": total("decomp.build_decomposition"),
        "decomp.coverage_s": total("decomp.coverage_report"),
        "decomp.bytes_per_n": build["nbytes"] / build["n"] if build else 0.0,
        "decomp.pq_fraction": build["pq"] / build["window"] if build else 0.0,
        "criterion.sequence_s": total("criterion.sequence"),
        "exactreal.frac_parts_s": total("exactreal.frac_parts"),
        "criterion.tau_s": total("criterion.tau_estimate"),
        "criterion.tau_pairs": counted("criterion.tau_estimate", "pairs"),
        "criterion.tau_products": counted("criterion.tau_estimate", "products"),
        "criterion.ledger_self_s": sum(
            t for s, t in zip(spans, selfs) if s.name == "criterion.criterion_ledger"),
        "dynamics.orbit_s": total("dynamics.orbit_run"),
        "dynamics.orbit_points": points,
        "dynamics.orbit_us_per_point":
            1e6 * total("dynamics.orbit_run") / points if points else 0.0,
        "dynamics.precision_bits": max((s.counts.get("bits", 0) for s in runs), default=0),
        "dynamics.quad_s": total("dynamics.haar_mean"),
        "dynamics.quad_calls": len(named("dynamics.haar_mean")),
        "dynamics.quad_nodes": counted("dynamics.haar_mean", "nodes"),
        "correlator.classify_s": total("correlator.classify_correlator"),
        "correlator.classified": len(named("correlator.classify_correlator")),
    }
