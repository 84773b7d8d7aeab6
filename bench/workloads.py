"""The three benchmark workloads: inputs made from a seed, the timed
operation, and the correctness checks on its outputs.

Each operation replays what the ``horomu`` CLI handlers do for the
subcommands it stands for, through the same public functions, in the same
order and with the same defaults (``QuadratureSpec()``, default precision
bits, ``threads=1``), so its time is the time a CLI user pays. The program
only ever receives the descriptor strings made here.

Why these three (a layer an optimisation targets is exercised by one
workload and bypassed by another):

* ``bilinear`` runs the whole bilinear leg (sieves, decomposition,
  coverage, sequence, tau, block ledgers) and leaves ``dynamics`` idle.
* ``orbit`` is dominated by the orbit evaluator on contiguous and strided
  indices; quadrature (vectorised bump) and the sieve do little.
* ``frame`` is dominated by the Python-looped frame-dependent quadrature,
  and also takes the orbit evaluator's theta path that ``orbit`` skips.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
from mpmath import mp

from horomu import arith, cli, correlator, criterion, decomp, dynamics

# Constants from the README vocabulary. For the point point:lower:t=<c>,
# each gives the boundary descriptor of its cusp direction 1/c and an
# mpmath value of c for the independent checks.
CONSTANTS = {
    "sqrt2": ("surd:2,0,-1", lambda: mp.sqrt(2)),
    "sqrt:3": ("surd:3,0,-1", lambda: mp.sqrt(3)),
    "sqrt:5": ("surd:5,0,-1", lambda: mp.sqrt(5)),
    "golden": ("surd:1,1,-1", lambda: (1 + mp.sqrt(5)) / 2),
    "e": ("inv_e", lambda: mp.e),
    "pi": ("inv_pi", lambda: mp.pi),
    "inv_e": ("e", lambda: 1 / mp.e),
    "inv_pi": ("pi", lambda: 1 / mp.pi),
}

# Mertens function M(10^k), from published tables.
MERTENS = {10: -1, 100: 1, 1000: 2, 10**4: -23, 10**5: -48, 10**6: 212}

BUMP = "obs:bump:y0=2,width=0.5"
WINDY = "obs:windy:y0=2,width=0.5"

# Evaluator points may differ from the closed form by rounding only; a
# wrong reduction or too few working bits moves them by far more.
ORBIT_TOLERANCE = 1e-6
# The windy observable's quadrature mean against its exact mean 0.
QUADRATURE_TOLERANCE = 1e-8
TAU_TOLERANCE = 1e-9
SAMPLES = 64

SIZES = {
    "full": {
        "bilinear": {"n": 3_000_000, "alpha": "3/10", "j0": 9, "j1": 30,
                     "cutoff": 1000.0},
        "orbit": {"n": 300_000, "ladder": "3000,30000,300000",
                  "corr_n": 100_000, "p": 2, "q": 3},
        "frame": {"n": 100_000, "corr_n": 20_000, "p": 2, "q": 3,
                  "quad": dynamics.QuadratureSpec()},
    },
    "smoke": {
        "bilinear": {"n": 200_000, "alpha": "3/10", "j0": 9, "j1": 30,
                     "cutoff": 100.0},
        "orbit": {"n": 3_000, "ladder": "300,3000", "corr_n": 1_000,
                  "p": 2, "q": 3},
        "frame": {"n": 1_000, "corr_n": 500, "p": 2, "q": 3,
                  "quad": dynamics.QuadratureSpec(nx=100, nv=100, ntheta=8)},
    },
}


def midpoint_error(nx: int) -> float:
    """Leading error term of the nx-point midpoint rule for the domain mass
    integral of (1 - x^2)^(-1/2) over [-1/2, 1/2]: h^2/24 (f'(1/2) - f'(-1/2)),
    about 1.6e-8 on the default grid."""
    slope = 0.5 / 0.75 ** 1.5  # f'(1/2) = x (1 - x^2)^(-3/2)
    return 2 * slope / (24 * nx * nx)


def pick_constant(seed: int) -> str:
    return random.Random(seed).choice(sorted(CONSTANTS))


class Workload:
    """One closed-loop client: ``run`` is one operation, started only after
    the previous one returned. ``work`` is the fixed input size that
    throughput is counted in."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, size: str = "full"):
        self.size = SIZES[size][self.name]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.constant = pick_constant(seed)

    def descriptors(self) -> dict:
        raise NotImplementedError

    def parse(self) -> dict:
        """Set-up: everything before the first layer call."""
        raise NotImplementedError

    def run(self, inputs: dict) -> dict:
        raise NotImplementedError

    def check(self, inputs: dict, out: dict) -> list[str]:
        """Failed correctness checks on one operation's outputs."""
        raise NotImplementedError

    def static_check(self, inputs: dict) -> tuple[list[str], float]:
        """Checks that do not depend on an operation's outputs, run once per
        process, and the evaluator's deviation from the closed form."""
        return [], 0.0


class Bilinear(Workload):
    """``horomu criterion`` then ``horomu decompose`` on one window."""

    name = "bilinear"
    work_unit = "window integers"

    @property
    def work(self) -> int:
        return self.size["n"]

    def descriptors(self) -> dict:
        return {"nu": "mobius", "seq": f"exp:theta={self.constant}"}

    def parse(self) -> dict:
        s = self.size
        d = self.descriptors()
        alpha = Fraction(s["alpha"])
        params = decomp.DecompositionParams(s["n"], alpha, s["j0"], s["j1"])
        horizon = int(-(-s["n"] * (1 + alpha) // 1))
        samples = sorted(self.rng.randrange(1, s["n"]) for _ in range(SAMPLES))
        return {"params": params, "horizon": horizon, "nu": d["nu"],
                "seq": d["seq"], "cutoff": s["cutoff"], "samples": samples}

    def run(self, inputs: dict) -> dict:
        out = self._criterion(inputs)
        out.update(self._decompose(inputs))
        return out

    @staticmethod
    def _criterion(inputs: dict) -> dict:
        p = inputs["params"]
        nu = cli.parse_nu(inputs["nu"], p.n)
        F = cli.parse_sequence(inputs["seq"], inputs["horizon"], None)
        ledger = criterion.criterion_ledger(
            nu, F, p.n, p.alpha, p.j0, p.j1, excluded=cli.parse_excluded(""),
            cutoff=inputs["cutoff"], M=None, threads=1)
        return {"nu": nu, "ledger": ledger}

    @staticmethod
    def _decompose(inputs: dict) -> dict:
        params = inputs["params"]
        primes = arith.sieve_primes(max(int(math.ceil(float(params.d1))) + 1, 3))
        dec = decomp.build_decomposition(params, primes)
        return {"primes": primes, "dec": dec,
                "coverage": decomp.coverage_report(dec, primes)}

    def check(self, inputs: dict, out: dict) -> list[str]:
        fails = []
        params, nu, ledger, dec = (inputs["params"], out["nu"], out["ledger"],
                                   out["dec"])
        n = params.n
        k = max(v for v in MERTENS if v < n)
        if int(nu.values[1:k + 1].sum()) != MERTENS[k]:
            fails.append(f"M({k}) != {MERTENS[k]}")
        if dec.count_pq + ledger.leftover_count != n - 1:
            fails.append("count_pq + leftover_count != N-1")
        if not ledger.exact_chain_holds:
            fails.append("an exact ledger line fails")
        fails += self._check_tau(n, ledger.tau)
        for m in inputs["samples"]:
            if decomp.classify(m, params, out["primes"]) != dec.classification(m):
                fails.append(f"classify({m}) disagrees with the decomposition")
        return fails

    def _check_tau(self, n: int, tau) -> list[str]:
        """Recompute the worst pair's normalised correlation without the
        library: frac(k*theta) from a 64-bit image of theta, wrapped in uint64."""
        p1, p2 = tau.worst_pair
        m = n // max(p1, p2)
        with mp.workprec(192):
            image = int(mp.floor(mp.frac(CONSTANTS[self.constant][1]()) * mp.mpf(2) ** 64))
        theta = np.uint64(image)
        ks = np.arange(1, m + 1, dtype=np.uint64)
        phase = ks * np.uint64(p1) * theta - ks * np.uint64(p2) * theta
        total = np.sum(np.exp(2j * np.pi * (phase.astype(np.float64) * 2.0 ** -64)))
        if abs(abs(total) / m - tau.tau_hat) > TAU_TOLERANCE:
            return [f"tau_hat {tau.tau_hat!r} != recomputed {abs(total) / m!r}"]
        return []


class _OrbitWorkload(Workload):
    """Shared set-up and checks of the two workloads on a generic point."""

    obs = ""
    work_unit = "orbit points requested"

    @property
    def work(self) -> int:
        return self.size["n"] + 2 * self.size["corr_n"]

    @property
    def top_index(self) -> int:
        return max(self.size["n"], self.size["q"] * self.size["corr_n"])

    def descriptors(self) -> dict:
        return {"point": f"point:lower:t={self.constant}", "obs": self.obs,
                "z": CONSTANTS[self.constant][0]}

    def parse(self) -> dict:
        d = self.descriptors()
        return {"xi": cli.parse_point(d["point"]), "f": cli.parse_observable(d["obs"]),
                "z": cli.parse_descriptor(d["z"])}

    def _common_fails(self, out: dict) -> list[str]:
        fails = [f"genericity {g!r}" for g in out["genericity"] if g != "generic"]
        if out["verdict"].is_full:
            fails.append("generic point classified with the full correlator group")
        if not all(math.isfinite(v) for v in out["values"]):
            fails.append("non-finite orbit average")
        return fails

    def static_check(self, inputs: dict) -> tuple[list[str], float]:
        fails = []
        quad = dynamics.QuadratureSpec()
        mass = dynamics.domain_mass(quad)
        if abs(mass - math.pi / 3) > 2 * midpoint_error(quad.nx):
            fails.append(f"domain_mass {mass!r} is not pi/3")
        dev = self._evaluator_deviation(inputs["xi"])
        if not dev <= ORBIT_TOLERANCE:
            fails.append(f"orbit evaluator deviates by {dev!r} from the closed form")
        return fails, dev

    def _evaluator_deviation(self, xi) -> float:
        """Max |dx|, |dy| (and |dtheta| for frame observables) of the
        evaluator against ``horocycle_point`` at 64 extra bits, on the first
        indices, on a block at a seeded offset, and on a strided block."""
        theta = self.obs == WINDY
        top, q, block = self.top_index, self.size["q"], SAMPLES
        start = self.rng.randrange(1, top - block)
        stride = self.rng.randrange(1, top // q - block)
        dev = 0.0
        for idx in (range(1, 1 + block), range(start, start + block),
                    range(q * stride, q * (stride + block), q)):
            idx = list(idx)
            ev = dynamics.OrbitEvaluator(xi, max(idx))
            xs, ys, ts = ev.run(idx, need_theta=theta)
            for x, y, t, m in zip(xs, ys, ts, idx):
                c = dynamics.horocycle_point(xi, m, ev.bits + 64, need_theta=theta)
                dev = max(dev, abs(x - c.x), abs(y - c.y))
                if theta:
                    dt = abs(t - c.theta) % (2 * math.pi)
                    dev = max(dev, min(dt, 2 * math.pi - dt))
        return dev


class Orbit(_OrbitWorkload):
    """``horomu classify``, ``horomu disjointness`` and ``horomu correlate``
    with the bump observable."""

    name = "orbit"
    obs = BUMP

    def parse(self) -> dict:
        inputs = super().parse()
        inputs["ladder"] = [int(v) for v in self.size["ladder"].split(",")]
        return inputs

    def run(self, inputs: dict) -> dict:
        s, xi, f = self.size, inputs["xi"], inputs["f"]
        verdict = correlator.classify_correlator(inputs["z"])
        nu = cli.parse_nu("mobius", s["n"])
        rep = dynamics.mobius_disjointness_sum(xi, f, s["n"], nu,
                                               ladder=inputs["ladder"],
                                               precision_bits=None)
        gen = [dynamics.genericity(xi).label]
        est = dynamics.pair_correlation(f, xi, s["p"], s["q"], s["corr_n"],
                                        precision_bits=None,
                                        quad=dynamics.QuadratureSpec())
        gen.append(dynamics.genericity(xi).label)
        values = [r.average for r in rep.rows] + [est.value, est.target]
        return {"verdict": verdict, "genericity": gen, "values": values}

    def check(self, inputs: dict, out: dict) -> list[str]:
        return self._common_fails(out)


class Frame(_OrbitWorkload):
    """``horomu classify``, ``horomu correlate --mean-zero`` with the
    frame-dependent windy observable, then a Birkhoff average with theta."""

    name = "frame"
    obs = WINDY

    def run(self, inputs: dict) -> dict:
        s, xi, f = self.size, inputs["xi"], inputs["f"]
        verdict = correlator.classify_correlator(inputs["z"])
        # The shifted observable has no exact mean, so pair_correlation
        # computes the quadrature a second time; users pay that too.
        f1, mean = dynamics.split_observable(f, s["quad"])
        est = dynamics.pair_correlation(f1, xi, s["p"], s["q"], s["corr_n"],
                                        precision_bits=None, quad=s["quad"])
        gen = [dynamics.genericity(xi).label]
        avg = dynamics.birkhoff_average(f, xi, s["n"], precision_bits=None)
        return {"verdict": verdict, "genericity": gen, "mean": mean,
                "values": [est.value, est.target, avg]}

    def check(self, inputs: dict, out: dict) -> list[str]:
        fails = self._common_fails(out)
        if abs(out["mean"] - inputs["f"].exact_mean) > QUADRATURE_TOLERANCE:
            fails.append(f"windy Haar mean {out['mean']!r} is not 0")
        return fails


WORKLOADS = {w.name: w for w in (Bilinear, Orbit, Frame)}
