import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from horomu import dynamics
from horomu.arith import MultiplicativeTable, sieve_mobius
from horomu.dynamics import (FundamentalDomainCoords, ModularPoint,
                             Observable, OrbitEvaluator, QuadratureSpec,
                             birkhoff_average, bump_observable,
                             const_observable, domain_mass, genericity,
                             haar_mean, horocycle_point,
                             mobius_disjointness_sum, orbit_sequence,
                             pair_correlation, reduce, split_observable,
                             step_observable, windy_observable, _ANCHOR_EVERY,
                             _CHECK_BITS, _CHUNK, _MAX_DELTA, _check_delta,
                             _state_error)
from horomu.errors import (ConvergenceError, DescriptorError, DomainError,
                           PrecisionError, ValidationError)
from horomu.exactreal import SymbolicReal, as_symbolic

from conftest import TEST_SEED, reduce_oracle, tracked_reduction

SMALL_QUAD = QuadratureSpec(nx=12, nv=48, ntheta=32)
# a much higher order of the same rule, the reference for the defaults
FINE_QUAD = QuadratureSpec(nx=48, nv=512)


class TestReduce:
    def test_translation_example(self):
        c = reduce(1 + 1j)
        assert (c.x, c.y) == (0.0, 1.0)
        assert c.gamma == ((1, -1), (0, 1))

    def test_identity_example(self):
        c = reduce(1j)
        assert (c.x, c.y) == (0.0, 1.0) and c.gamma == ((1, 0), (0, 1))

    def test_against_exact_oracle(self):
        rng = random.Random(TEST_SEED)
        for _ in range(100):
            xr = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
            yr = Fraction(rng.randint(1, 300), rng.randint(1, 97))
            ox, oy, og = reduce_oracle(xr, yr)
            got = reduce((xr, yr))
            assert got.gamma == og
            assert abs(got.x - float(ox)) < 1e-10
            assert abs(got.y - float(oy)) < 1e-10

    def test_gamma_integral_and_unimodular(self):
        rng = random.Random(TEST_SEED + 1)
        for _ in range(500):
            z = complex(rng.uniform(-8, 8), rng.uniform(1e-3, 4.0))
            c = reduce(z)
            (a, b), (cc, d) = c.gamma
            assert a * d - b * cc == 1
            assert all(isinstance(v, int) for row in c.gamma for v in row)
            assert -0.5 <= c.x < 0.5
            assert c.x * c.x + c.y * c.y >= 1 - 1e-12

    def test_idempotent(self):
        rng = random.Random(TEST_SEED + 2)
        for _ in range(300):
            z = complex(rng.uniform(-8, 8), rng.uniform(1e-3, 4.0))
            first = reduce(z)
            again = reduce(first.point)
            assert again.gamma == ((1, 0), (0, 1))

    def test_gamma_maps_input_to_output(self):
        rng = random.Random(TEST_SEED + 3)
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 3.0))
            c = reduce(z)
            (a, b), (cc, d) = c.gamma
            image = (a * z + b) / (cc * z + d)
            assert abs(image - c.point) < 1e-12

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValidationError):
            reduce(1 - 1j)

    def test_precision_floor(self):
        with pytest.raises(PrecisionError, match=r"Im z = 1e-30 is below the "
                           r"working-precision floor 2\^-64"):
            reduce((0.3, 1e-30), precision_bits=64)


class TestModularPoint:
    def test_det_validation(self):
        with pytest.raises(ValidationError):
            ModularPoint(2, 0, 0, 1)

    @pytest.mark.parametrize("entries, det", [
        # 1 + 10^-14 (1 + pi): within any float tolerance of 1, and not 1
        (("1+pi", "pi", "2+pi", "100000000000001/100000000000000+pi"),
         "100000000000001/100000000000000+1/100000000000000*pi"),
        (("pi", 0, 0, "pi"), "0 + (1)*pi^2"),
        (("1+e", "e", "2+e", "1/2+e"), "1/2-1/2*e"),
        (("1+sqrt2", "sqrt2", "2+sqrt2", "2+sqrt2"), "2+sqrt2")])
    def test_det_is_exact(self, entries, det):
        with pytest.raises(ValidationError, match=re.escape(f"det(xi) = {det} != 1")):
            ModularPoint(*entries)

    @pytest.mark.parametrize("entries", [
        ("1+pi", "pi", "2+pi", "1+pi"),  # (1 + pi)^2 - pi (2 + pi): the pi^2 terms cancel
        ("2+inv_e", "1+inv_e", "3+inv_e", "2+inv_e"),
        ("sqrt2", 0, 0, "1/2*sqrt2"),  # sqrt2^2 = 2
        ("golden", 1, "golden", "golden"),  # golden^2 - golden = 1
        (3, Fraction(1, 2), 4, 1)])
    def test_det_one_is_accepted(self, entries):
        assert ModularPoint(*entries).entries[0] == as_symbolic(entries[0])

    def test_mixed_symbols_rejected(self):
        with pytest.raises(DescriptorError):
            ModularPoint(SymbolicReal.const("e"), 0, SymbolicReal.const("pi"), 1)

    def test_cusp_direction_variants(self):
        assert ModularPoint.identity().cusp_direction() == "infinity"
        assert ModularPoint(3, Fraction(1, 2), 4, 1).cusp_direction() == Fraction(3, 4)
        xi = ModularPoint.lower("inv_e")
        assert genericity(xi).generic

    def test_rational_ratio_with_symbolic_entries(self):
        xi = ModularPoint(SymbolicReal.parse("sqrt2"), SymbolicReal.parse("1/4*sqrt2"),
                          SymbolicReal.parse("2*sqrt2"), SymbolicReal.parse("sqrt2"))
        g = genericity(xi)
        assert not g.generic and g.cusp_direction == Fraction(1, 2)

    def test_nongeneric_examples(self):
        assert not genericity(ModularPoint.identity()).generic
        g = genericity(ModularPoint(3, Fraction(1, 2), 4, 1))
        assert g.cusp_direction == Fraction(3, 4)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(DescriptorError):
            ModularPoint.lower("feigenbaum")


class TestHorocyclePoint:
    def test_integral_point_is_fixed(self):
        ident = ModularPoint.identity()
        for n in (0, 1, 7, 1000, 10 ** 6):
            c = horocycle_point(ident, n)
            assert (c.x, c.y, c.theta) == (0.0, 1.0, 0.0)

    def test_other_integral_matrix_fixed(self):
        xi = ModularPoint(2, 1, 1, 1)
        base = horocycle_point(xi, 0)
        for n in (1, 13, 999):
            c = horocycle_point(xi, n)
            assert abs(c.x - base.x) < 1e-12 and abs(c.y - base.y) < 1e-12

    def test_against_high_precision_oracle(self):
        # independent evaluation at 256-bit mpmath + exact-rational reduction
        xi = ModularPoint.lower(Fraction(3, 7))
        for n in (1, 2, 17, 1234):
            got = horocycle_point(xi, n)
            t = Fraction(3, 7)
            den = (t * n + 1) ** 2 + t * t
            zx = Fraction((t * n + 1) * n + t, 1) / den
            zy = Fraction(1, 1) / den
            ox, oy, og = reduce_oracle(zx, zy)
            assert got.gamma == og, n
            assert abs(got.x - float(ox)) < 1e-12
            assert abs(got.y - float(oy)) < 1e-12

    @pytest.mark.parametrize("t", ["1/2", "1/3", "1/5", "2/5", "3/7", "2/9"])
    def test_x_stays_below_one_half(self, t):
        # these orbits meet x = 1/2 exactly, where x in [-1/2, 1/2) keeps -1/2
        xi, n = ModularPoint.lower(t), 400
        points = [horocycle_point(xi, m) for m in range(1, n + 1)]
        xs = np.array([c.x for c in points])
        run = OrbitEvaluator(xi, n).run(range(1, n + 1))[0]
        assert xs.max() < 0.5 and run.max() < 0.5
        if t == "1/2":
            assert np.array_equal(xs, run)
        tf = Fraction(t)
        edge = [m for m, c in enumerate(points, start=1) if c.x == -0.5]
        assert edge
        for m in edge:
            den = (tf * m + 1) ** 2 + tf * tf
            ox, oy, og = reduce_oracle(((tf * m + 1) * m + tf) / den, 1 / den)
            assert (ox, points[m - 1].gamma) == (-Fraction(1, 2), og), m

    def test_symbolic_point_against_mpmath(self):
        xi = ModularPoint.lower("inv_e")
        mp.prec = 256
        t = 1 / mp.e
        for n in (1, 5, 100, 4321):
            w = (mp.mpf(n) + mp.mpc(0, 1)) / (t * (mp.mpf(n) + mp.mpc(0, 1)) + 1)
            got = horocycle_point(xi, n)
            # reduce the mpmath point with the exact-rational oracle
            zx = Fraction(str(mp.nstr(w.real, 50)))
            zy = Fraction(str(mp.nstr(w.imag, 50)))
            ox, oy, og = reduce_oracle(zx, zy)
            assert got.gamma == og, n
            assert abs(got.x - float(ox)) < 1e-10
            assert abs(got.y - float(oy)) < 1e-10

    def test_orbit_consistency(self):
        xi = ModularPoint.lower("inv_e")
        rng = random.Random(TEST_SEED)
        for _ in range(20):
            m = rng.randint(0, 1000)
            n = rng.randint(0, 1000)
            a = horocycle_point(xi, m + n)
            a0, b0, c0, d0 = xi.entries  # xi * u^m: the columns shear
            b = horocycle_point(ModularPoint(a0, b0 + m * a0, c0, d0 + m * c0), n)
            assert abs(a.x - b.x) < 1e-11 and abs(a.y - b.y) < 1e-11
            assert abs(a.theta - b.theta) < 1e-11

    def test_warm_start_matches_cold(self):
        xi = ModularPoint.lower("inv_e")
        ev = OrbitEvaluator(xi, 5000)
        for n in (1, 2, 3, 50, 333, 4999):
            warm = ev.coords(n)
            cold = horocycle_point(xi, n)
            assert abs(warm.x - cold.x) < 1e-12
            assert abs(warm.y - cold.y) < 1e-12
            assert warm.gamma == cold.gamma
            assert abs(warm.theta - cold.theta) < 1e-12

    def test_unimodularity_along_orbit(self):
        xi = ModularPoint.lower("inv_e")
        for n in (1, 10, 100):
            (a, b), (cc, d) = horocycle_point(xi, n).gamma
            assert a * d - b * cc == 1

    def test_evaluator_requires_ascending(self):
        ev = OrbitEvaluator(ModularPoint.identity(), 100)
        ev.coords(10)
        with pytest.raises(ValidationError):
            ev.coords(5)


def _exact_run(self, indices, need_theta=False):
    """``OrbitEvaluator.run`` as a loop of exact ``coords`` calls."""
    cs = [self.coords(m, need_theta) for m in indices]
    return (np.array([c.x for c in cs]), np.array([c.y for c in cs]),
            np.array([c.theta if need_theta else 0.0 for c in cs]))


def _exact_chunks(self, indices, need_theta=False):
    """``OrbitEvaluator.chunks`` from exact ``coords`` calls."""
    arrays = _exact_run(self, indices, need_theta)
    for lo in range(0, len(arrays[0]), _CHUNK):
        yield lo, tuple(a[lo:lo + _CHUNK] for a in arrays)


def _stepped_state_error(state, ref_state, ref_one):
    """Row errors of the exact state against ``ref_state``, the same point
    stepped by its own evaluator at _CHECK_BITS more bits, mapped into the
    state's representative when the reducing matrices differ."""
    _, w, g = state
    _, w_ref, g_ref = ref_state
    if g != g_ref:
        p, q, r, s = g
        a, b, c, d = g_ref  # g * g_ref^-1 maps w_ref onto w's representative
        e = (p * d - q * c, q * a - p * b, r * d - s * c, s * a - r * b)
        wa, wb, wc, wd = w_ref
        w_ref = (e[0] * wa + e[1] * wc, e[0] * wb + e[1] * wd,
                 e[2] * wa + e[3] * wc, e[2] * wb + e[3] * wd)
    da, db, dc, dd = (abs((v << _CHECK_BITS) - u) for v, u in zip(w, w_ref))
    return max(da, db) / ref_one, max(dc, dd) / ref_one


def _count_steps(monkeypatch):
    """The index m of every ``OrbitEvaluator._step`` call from here on: one
    per exact anchor and one per exact fallback of the blocked path."""
    calls = []
    step = OrbitEvaluator._step

    def counting(self, state, m):
        calls.append(m)
        return step(self, state, m)

    monkeypatch.setattr(OrbitEvaluator, "_step", counting)
    return calls


def _record_reductions(monkeypatch, change=None):
    """(rows, delta) of every ``_reduced_delta`` call from here on; ``change``,
    if given, maps each returned delta to the one the evaluator receives."""
    calls = []
    reduced = dynamics._reduced_delta

    def recording(*rows):
        delta = reduced(*rows)
        calls.append((rows, delta))
        return delta if change is None else change(*delta)

    monkeypatch.setattr(dynamics, "_reduced_delta", recording)
    return calls


def _assert_matches_exact(xi, indices, tol=1e-9):
    idx = list(indices)
    n_max = max(idx, default=2)
    xs, ys, ts = OrbitEvaluator(xi, n_max).run(idx, need_theta=True)
    ex, ey, et = _exact_run(OrbitEvaluator(xi, n_max), idx, need_theta=True)
    dt = np.abs(ts - et) % (2 * math.pi)
    assert len(xs) == len(idx)
    assert np.all(np.abs(xs - ex) <= tol), np.max(np.abs(xs - ex), initial=0)
    assert np.all(np.abs(ys - ey) <= tol), np.max(np.abs(ys - ey), initial=0)
    assert np.all(np.minimum(dt, 2 * math.pi - dt) <= tol)
    return ys


class TestBlockedEvaluator:
    """``run`` (float blocks from exact anchors) against the exact path."""

    XI = ModularPoint.lower("inv_e")

    @pytest.mark.parametrize("length", [0, 1, _ANCHOR_EVERY, _ANCHOR_EVERY + 1,
                                        2 * _CHUNK + 3])
    def test_contiguous_from_one(self, length):
        _assert_matches_exact(self.XI, range(1, length + 1))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_seeded_offsets_straddle_blocks(self, stride):
        rng = random.Random(TEST_SEED + stride)
        for _ in range(3):
            start = rng.randint(1, 10 ** 6)
            n = rng.randint(_ANCHOR_EVERY + 1, 3 * _ANCHOR_EVERY)
            _assert_matches_exact(self.XI, range(start, start + stride * n, stride))

    def test_other_points(self):
        for xi in (ModularPoint.lower("sqrt2"), ModularPoint.upper("e"),
                   ModularPoint.lower(SymbolicReal.const("pi", 7))):
            _assert_matches_exact(xi, range(5, 5 + 3 * 2000, 3))
        # an integral point, and a rotation of i: both sit on the unit circle
        for xi in (ModularPoint(2, 1, 1, 1),
                   ModularPoint(Fraction(3, 5), Fraction(-4, 5),
                                Fraction(4, 5), Fraction(3, 5))):
            _assert_matches_exact(xi, range(0, 2 * _ANCHOR_EVERY))

    @pytest.mark.parametrize("m, stride, pos", [(22179, 3, _ANCHOR_EVERY - 10),
                                                (265216, 7, _ANCHOR_EVERY - 1)])
    def test_cusp_excursion(self, m, stride, pos, monkeypatch):
        # m sits pos indices after an anchor, at y ~ 4e4 and 1.4e5, where
        # the float block alone is 2.7e-9 and 2.2e-8 off
        idx = range(m - stride * pos, m + stride * 50, stride)
        calls = _count_steps(monkeypatch)
        OrbitEvaluator(self.XI, idx[-1]).run(idx, need_theta=True)
        monkeypatch.undo()
        assert m not in idx[::_ANCHOR_EVERY] and m in calls  # the exact path ran at m
        ys = _assert_matches_exact(self.XI, idx)
        assert ys[pos] > 1e3

    def test_exact_work_count(self, monkeypatch):
        # one exact anchor per _ANCHOR_EVERY indices, and exact fallbacks for
        # the cusp excursions only: 51 of the 1e5 points at inv_e
        n = 10 ** 5
        calls = _count_steps(monkeypatch)
        birkhoff_average(windy_observable(), self.XI, n)
        anchors = sorted({m for m in calls if (m - 1) % _ANCHOR_EVERY == 0})
        assert anchors == list(range(1, n + 1, _ANCHOR_EVERY))  # ceil(n / 256) of them
        assert len(calls) - len(anchors) <= n / 1000, len(calls)

    @pytest.mark.parametrize("constant", ["sqrt2", "sqrt:3", "sqrt:5", "golden",
                                          "e", "pi", "inv_e", "inv_pi"])
    def test_read_back_delta_is_the_tracked_one(self, constant, monkeypatch):
        # wherever the read-back is an exact det-1 matrix small enough to be
        # kept, it equals the reducing matrix tracked through the same loop,
        # on ranges crossing anchor and chunk seams and at the cusp points
        rng = random.Random(TEST_SEED)
        xi = ModularPoint.lower(constant)
        ranges = [range(1, _CHUNK + 2 * _ANCHOR_EVERY + 5),
                  *(range(start, start + stride * (_CHUNK + 300), stride)
                    for stride, start in ((2, rng.randint(1, 10 ** 6)),
                                          (3, rng.randint(1, 10 ** 6)),
                                          (7, rng.randint(1, 10 ** 6)))),
                  range(22179 - 3 * (_ANCHOR_EVERY - 10), 22179 + 3 * 50, 3),
                  range(265216 - 7 * (_ANCHOR_EVERY - 1), 265216 + 7 * 50, 7)]
        calls = _record_reductions(monkeypatch)
        for idx in ranges:
            OrbitEvaluator(xi, idx[-1]).run(idx, need_theta=True)
        kept = 0
        for rows, (p, q, r, s) in calls:
            want = tracked_reduction(*rows)
            mask = ((p * s - q * r == 1.0)
                    & (np.abs(p) + np.abs(q) + np.abs(r) + np.abs(s) < _MAX_DELTA))
            for got, ref in zip((p, q, r, s), want):
                assert np.array_equal(got[mask], ref[mask])
            kept += mask.sum()
        assert kept > 0.99 * sum(len(idx) for idx in ranges)

    def test_bad_read_back_falls_back(self, monkeypatch):
        # a read-back that is not a det-1 matrix sends its point to the exact
        # path, whose value the chunk then holds
        k, idx = 100, range(1, 2 * _ANCHOR_EVERY)

        def doubled_at_k(*delta):
            out = tuple(v.copy() for v in delta)
            for v in out:
                v.reshape(-1)[k] *= 2
            return out

        _record_reductions(monkeypatch, doubled_at_k)
        calls = _count_steps(monkeypatch)
        xs, ys, ts = OrbitEvaluator(self.XI, idx[-1]).run(idx, need_theta=True)
        assert idx[k] in calls
        monkeypatch.undo()
        want = OrbitEvaluator(self.XI, idx[-1]).coords(idx[k])
        assert (xs[k], ys[k], ts[k]) == (want.x, want.y, want.theta)

    def test_identity_orbit_is_exact(self):
        for idx in (range(1, 3000), range(7, 7 + 5 * 1000, 5)):
            xs, ys, ts = OrbitEvaluator(ModularPoint.identity(), idx[-1]).run(idx, True)
            assert np.all(xs == 0.0) and np.all(ys == 1.0) and np.all(ts == 0.0)

    def test_decreasing_indices_rejected(self):
        ev = OrbitEvaluator(self.XI, 100)
        with pytest.raises(ValidationError):
            ev.run([5, 7, 6])
        ev.run(range(1, 50))
        with pytest.raises(ValidationError):
            ev.run([40])
        with pytest.raises(ValidationError):
            ev.coords(48)

    def test_decrease_across_chunks_rejected(self):
        # a drop at position _CHUNK, the first index of the second chunk
        idx = list(range(1, _CHUNK + 1)) + [_CHUNK - 1, _CHUNK + 1]
        with pytest.raises(ValidationError):
            OrbitEvaluator(self.XI, 2 * _CHUNK).run(idx)
        with pytest.raises(ValidationError):
            list(OrbitEvaluator(self.XI, 2 * _CHUNK).chunks(np.array(idx)))
        # and at the first index of a second call
        ev = OrbitEvaluator(self.XI, 2 * _CHUNK)
        assert [lo for lo, _ in ev.chunks(range(1, _CHUNK + 2))] == [0, _CHUNK]
        ev.run([_CHUNK + 1])  # an equal index is allowed
        with pytest.raises(ValidationError):
            next(ev.chunks(range(_CHUNK, 2 * _CHUNK)))
        with pytest.raises(ValidationError):
            ev.run([_CHUNK])

    @pytest.mark.parametrize("indices", [range(1, 1), range(1, 100),
                                         range(5, 5 + 3 * (2 * _CHUNK + 1), 3)])
    def test_chunks_are_run_in_pieces(self, indices):
        whole = OrbitEvaluator(self.XI, 10 ** 5).run(indices, True)
        offsets = []
        array = np.array(indices, dtype=np.int64)
        for lo, part in OrbitEvaluator(self.XI, 10 ** 5).chunks(array, True):
            offsets.append(lo)
            assert len(part[0]) == min(_CHUNK, len(indices) - lo)
            for a, b in zip(whole, part):
                assert a[lo:lo + _CHUNK].tobytes() == b.tobytes()
        assert offsets == list(range(0, len(indices), _CHUNK))

    def test_low_precision_raises(self):
        with pytest.raises(PrecisionError, match="off the closed form"):
            OrbitEvaluator(self.XI, 20000, 48).run(range(1, 20001))

    def test_check_product_matches_stepped_check(self):
        # the error from one product g * delta * u^m equals the error against
        # an independently stepped evaluator at _CHECK_BITS more bits, also
        # where that evaluator reached the point by another reducing matrix
        rng = random.Random(TEST_SEED)
        differing = 0
        for xi in (self.XI, ModularPoint.upper("sqrt2"), ModularPoint.lower(Fraction(1, 2)),
                   ModularPoint.lower(Fraction(3, 7))):
            for bits in (None, 48):
                idx = sorted(rng.randrange(10 ** rng.randint(1, 6)) for _ in range(300))
                ev = OrbitEvaluator(xi, max(idx[-1], 2), bits)
                check = OrbitEvaluator(xi, 2, ev.bits + _CHECK_BITS)
                delta = _check_delta(xi, ev.bits)
                state, ref_state = ev._state, check._state
                for m in idx:
                    state, ref_state = ev._step(state, m), check._step(ref_state, m)
                    differing += state[2] != ref_state[2]
                    assert (_state_error(state, delta, check.one)
                            == _stepped_state_error(state, ref_state, check.one))
        assert differing > 0

    def test_averages_match_exact_path(self, monkeypatch):
        n = 10 ** 5
        f, _ = split_observable(bump_observable(2.0, 0.5))
        windy = windy_observable()
        mu = sieve_mobius(n)

        def values():
            return [birkhoff_average(windy, self.XI, n),
                    pair_correlation(f, self.XI, 2, 3, n, target=0.0).value,
                    *(r.average for r in mobius_disjointness_sum(self.XI, f, n, mu).rows)]

        fast = values()
        monkeypatch.setattr(OrbitEvaluator, "chunks", _exact_chunks)
        exact = values()
        assert np.max(np.abs(np.array(fast) - np.array(exact))) <= 1e-10


class TestObservables:
    def test_cusp_continuity(self):
        for f in (bump_observable(2, 0.5), step_observable(2, 0.25),
                  const_observable(0.7)):
            ys = np.array([1e4, 1e5, 1e6])
            vals = np.asarray(f.eval(np.zeros(3), ys), float)
            assert np.all(np.abs(vals - f.cusp_limit) < 1e-6), f.label

    def test_bounds(self):
        f = bump_observable(2, 0.5)
        ys = np.exp(np.linspace(-1, 8, 200))
        vals = np.asarray(f.eval(np.zeros_like(ys), ys), float)
        assert np.all(np.abs(vals) <= 1.0)

    def test_frame_requires_theta(self):
        w = windy_observable()
        with pytest.raises(ValidationError):
            w.eval(0.0, 2.0)


class TestHaar:
    def test_domain_mass_is_pi_over_3(self):
        # to rounding: the x-integrand (1 - x^2)^(-1/2) is analytic on [-1/2, 1/2]
        for quad in (QuadratureSpec(), SMALL_QUAD):
            assert abs(domain_mass(quad) - math.pi / 3) <= 1e-14, quad

    @pytest.mark.parametrize("f", [const_observable(1.0), bump_observable(),
                                   step_observable(), windy_observable()],
                             ids=lambda f: f.label)
    def test_default_orders_converged(self, f):
        assert abs(haar_mean(f) - haar_mean(f, FINE_QUAD)) <= 1e-12

    def test_mean_of_one(self):
        assert haar_mean(const_observable(1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_bump_mean_against_1d_reduction(self):
        # K-invariant f(y): reduce to the 1d integral of f(y) w(y) / y^2 with
        # w(y) the domain width at height y
        from scipy.integrate import quad
        y0, wid = 2.0, 0.5
        f = bump_observable(y0, wid)

        def density(y):
            if y < math.sqrt(3) / 2:
                return 0.0
            width = 1.0 if y >= 1.0 else 1.0 - 2.0 * math.sqrt(1.0 - y * y)
            return math.exp(-((math.log(y / y0) / wid) ** 2)) * width / (y * y)

        total, _ = quad(density, math.sqrt(3) / 2, 1.0, limit=200)
        upper, _ = quad(density, 1.0, 200.0, limit=400)
        expect = (total + upper) / (math.pi / 3)
        got = haar_mean(f)
        assert got == pytest.approx(expect, rel=1e-5)

    def test_step_mean_against_1d_reduction(self):
        from scipy.integrate import quad
        f = step_observable(2.0, 0.25)

        def density(y):
            width = 1.0 if y >= 1.0 else 1.0 - 2.0 * math.sqrt(1.0 - y * y)
            return width / ((1.0 + math.exp(-(y - 2.0) / 0.25)) * y * y)

        lower, _ = quad(density, math.sqrt(3) / 2, 1.0, limit=200)
        mid, _ = quad(density, 1.0, 1000.0, limit=1000)
        tail = 1.0 / 1000.0  # f ~ 1 beyond the truncation
        expect = (lower + mid + tail) / (math.pi / 3)
        assert haar_mean(f) == pytest.approx(expect, rel=1e-4)

    def test_frame_average_kills_rotation_factor(self):
        assert haar_mean(windy_observable(), SMALL_QUAD) == pytest.approx(0.0,
                                                                          abs=1e-12)

    def test_frame_average_keeps_angular_mean(self):
        # the midpoint rule integrates cos^2 exactly, so the mean halves
        bump = bump_observable()
        f = Observable("bump-cos2", "frame",
                       lambda x, y, t: bump.fn(x, y) * np.cos(t) ** 2,
                       cusp_limit=0.0)
        assert haar_mean(f, SMALL_QUAD) == pytest.approx(
            haar_mean(bump, SMALL_QUAD) / 2, abs=1e-12)

    def test_split_recentres(self):
        f1, c = split_observable(bump_observable(2, 0.5))
        assert abs(haar_mean(f1)) < 1e-6
        assert f1.cusp_limit == pytest.approx(-c)

    def test_split_of_constant(self):
        f1, c = split_observable(const_observable(1.0))
        assert c == pytest.approx(1.0, abs=1e-10)
        assert abs(float(f1.eval(0.0, 2.0))) < 1e-10

    @pytest.mark.parametrize("make", [windy_observable, const_observable])
    def test_split_keeps_an_exact_mean(self, make, monkeypatch):
        # the centred observable's mean m - c is known exactly, so
        # pair_correlation runs no second quadrature and its target is
        # exactly (m - c)^2: c^2 for windy, whose m is 0
        calls = []

        def counting(f, *args):
            calls.append(f.label)
            return haar_mean(f, *args)
        monkeypatch.setattr(dynamics, "haar_mean", counting)
        f1, c = split_observable(make(), SMALL_QUAD)
        assert f1.exact_mean == make().exact_mean - c
        est = pair_correlation(f1, ModularPoint.lower("inv_e"), 2, 3, 50,
                               quad=SMALL_QUAD)
        assert len(calls) == 1 and est.target == f1.exact_mean * f1.exact_mean

    def test_split_of_an_unknown_mean(self):
        assert split_observable(bump_observable(2, 0.5), SMALL_QUAD)[0].exact_mean is None

    def test_cusp_divergence_detected(self):
        # a declared-wrong cusp limit must raise, not silently integrate
        from horomu.dynamics import Observable
        bad = Observable("bad", "k_invariant",
                         lambda x, y: np.minimum(1.0, 0.5 * np.log(y) / np.log(1e3)),
                         cusp_limit=0.0)
        with pytest.raises(ConvergenceError):
            haar_mean(bad)


class TestAveragesAndCorrelations:
    def test_birkhoff_of_one(self):
        assert birkhoff_average(const_observable(1.0),
                                ModularPoint.identity(), 997) == 1.0

    def test_fixed_orbit_value(self):
        f = bump_observable(2, 0.5)
        base = float(f.eval(0.0, 1.0))
        got = birkhoff_average(f, ModularPoint.identity(), 57)
        assert got == pytest.approx(base, rel=5e-16)

    def test_fixed_orbit_correlation(self):
        f = bump_observable(2, 0.5)
        base = float(f.eval(0.0, 1.0))
        est = pair_correlation(f, ModularPoint.identity(), 2, 3, 1000)
        assert est.value == pytest.approx(base * base, rel=5e-16)

    def test_constant_observable_correlation(self):
        est = pair_correlation(const_observable(1.0), ModularPoint.identity(),
                               2, 3, 100)
        assert est.value == 1.0 and est.target == 1.0 and est.gap == 0.0

    def test_correlation_bound(self):
        f = bump_observable(2, 0.5)
        xi = ModularPoint.lower("inv_e")
        est = pair_correlation(f, xi, 2, 3, 2000, quad=SMALL_QUAD)
        assert abs(est.value) <= 1.0 + 1e-12

    def test_birkhoff_approaches_haar(self):
        f = bump_observable(2, 0.5)
        xi = ModularPoint.lower("inv_e")
        c = haar_mean(f)
        got = birkhoff_average(f, xi, 20_000)
        assert abs(got - c) < 0.01

    def test_validation(self):
        f = bump_observable(2, 0.5)
        with pytest.raises(ValidationError):
            pair_correlation(f, ModularPoint.identity(), 3, 3, 100)

    def test_nan_term_fails_the_average(self):
        # the orbit climbs above y = 5 before n = 20000, where f is nan
        f = Observable("nan-above-5", "k_invariant",
                       lambda x, y: np.where(y > 5, math.nan, 1.0), cusp_limit=math.nan)
        with pytest.raises(DomainError, match="finite values"):
            birkhoff_average(f, ModularPoint.lower("inv_e"), 20000)


class TestDisjointness:
    def test_constant_observable_is_mertens_ratio(self, mobius_1k):
        rep = mobius_disjointness_sum(ModularPoint.identity(),
                                      const_observable(1.0), 100, mobius_1k)
        row = rep.row(100)
        assert row.average == pytest.approx(0.01, rel=1e-14)
        assert row.nu_mean == pytest.approx(0.01, rel=1e-14)

    def test_fixed_orbit_scales_mertens(self, mobius_1k):
        f = bump_observable(2, 0.5)
        base = float(f.eval(0.0, 1.0))
        rep = mobius_disjointness_sum(ModularPoint.identity(), f, 1000, mobius_1k)
        for row in rep.rows:
            mertens = int(mobius_1k.values[1:row.n + 1].sum())
            assert row.average == pytest.approx(base * mertens / row.n, rel=1e-12,
                                                abs=1e-15)

    def test_ladder_defaults(self, mobius_1k):
        rep = mobius_disjointness_sum(ModularPoint.identity(),
                                      const_observable(1.0), 1000, mobius_1k)
        assert [r.n for r in rep.rows] == [100, 1000]

    def test_complex_nu_rejected(self):
        vals = np.where(np.arange(201) % 2 == 1, 1j, -1).astype(np.complex128)
        vals[0], vals[1] = 0, 1
        nu = MultiplicativeTable(200, vals, "table")
        with pytest.raises(ValidationError, match="real"):
            mobius_disjointness_sum(ModularPoint.identity(), const_observable(1.0),
                                    200, nu)

    def test_bad_ladder(self, mobius_1k):
        with pytest.raises(ValidationError):
            mobius_disjointness_sum(ModularPoint.identity(), const_observable(1.0),
                                    100, mobius_1k, ladder=[5000])


class TestExactlyRoundedAverages:
    """Each orbit average is the fsum formula it replaced, bit for bit."""

    XI = ModularPoint.lower("inv_e")
    N = 3000

    def _values(self, f, indices):
        xs, ys, ts = OrbitEvaluator(self.XI, indices[-1]).run(indices, f.kind == "frame")
        return np.asarray(f.eval(xs, ys, ts), dtype=float)

    def test_birkhoff_average(self):
        f = windy_observable()
        want = math.fsum(self._values(f, range(1, self.N + 1))) / self.N
        assert birkhoff_average(f, self.XI, self.N).hex() == want.hex()

    def test_pair_correlation(self):
        f, _ = split_observable(windy_observable(), SMALL_QUAD)
        vp = self._values(f, range(2, 2 * self.N + 1, 2))
        vq = self._values(f, range(3, 3 * self.N + 1, 3))
        want = math.fsum(vp * vq) / self.N
        est = pair_correlation(f, self.XI, 2, 3, self.N, quad=SMALL_QUAD)
        assert est.value.hex() == want.hex()

    @pytest.mark.parametrize("ladder, rows", [
        (None, [100, 1000, 3000]),
        ([5, 5, 77, 1000, 1000, 2999], [5, 77, 1000, 2999, 3000])])
    def test_disjointness_rows(self, ladder, rows):
        f = bump_observable(2.0, 0.5)
        mu = sieve_mobius(self.N)
        rep = mobius_disjointness_sum(self.XI, f, self.N, mu, ladder=ladder)
        vals = self._values(f, range(1, self.N + 1))
        nu = mu.values[1:self.N + 1].astype(float)
        assert [r.n for r in rep.rows] == rows
        for r in rep.rows:
            total = math.fsum(nu[:r.n] * vals[:r.n]) / r.n
            nu_mean = math.fsum(nu[:r.n]) / r.n
            assert (r.average.hex(), r.nu_mean.hex()) == (total.hex(), nu_mean.hex())
            assert r.centered_average == total - rep.haar_constant * nu_mean

    @pytest.mark.parametrize("indices", [range(1, 5000), range(3, 3 * 2000, 3),
                                         range(7, 7 * 1500, 7)])
    def test_evaluator_range_and_list_agree(self, indices):
        for theta in (False, True):
            from_range = OrbitEvaluator(self.XI, indices[-1]).run(indices, theta)
            from_list = OrbitEvaluator(self.XI, indices[-1]).run(list(indices), theta)
            for a, b in zip(from_range, from_list):
                assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("n", [2 * _CHUNK, 2 * _CHUNK + 1])
    def test_streamed_sums_at_chunk_edges(self, n):
        """Every streamed average equals its full-array formula when N is a
        multiple of the chunk and one past it, with ladder rungs inside a
        chunk and on its edges."""
        windy, bump = windy_observable(), bump_observable(2.0, 0.5)
        f, _ = split_observable(windy, SMALL_QUAD)
        want = math.fsum(self._values(windy, range(1, n + 1))) / n
        assert birkhoff_average(windy, self.XI, n).hex() == want.hex()
        vp = self._values(f, range(2, 2 * n + 1, 2))
        vq = self._values(f, range(3, 3 * n + 1, 3))
        est = pair_correlation(f, self.XI, 2, 3, n, quad=SMALL_QUAD)
        assert est.value.hex() == (math.fsum(vp * vq) / n).hex()
        mu = sieve_mobius(n)
        ladder = [1, 77, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 500, 2 * _CHUNK]
        rep = mobius_disjointness_sum(self.XI, bump, n, mu, ladder=ladder)
        vals = self._values(bump, range(1, n + 1))
        nu = mu.values[1:n + 1].astype(float)
        assert [r.n for r in rep.rows] == sorted(set(ladder) | {n})
        for r in rep.rows:
            total = math.fsum(nu[:r.n] * vals[:r.n]) / r.n
            nu_mean = math.fsum(nu[:r.n]) / r.n
            assert (r.average.hex(), r.nu_mean.hex()) == (total.hex(), nu_mean.hex())
        seq = orbit_sequence(self.XI, bump, n).values
        assert seq.tobytes() == np.concatenate([[0.0], vals]).astype(complex).tobytes()

    def test_peak_memory_does_not_grow_with_n(self):
        """The orbit is never held whole: the same bound holds at 3e5 and at
        1e6 points, where the full arrays would take 12 MB and 40 MB, on the
        identity orbit (no fallbacks) and on inv_e (cusp excursions)."""
        bound = 4 * 2 ** 20
        windy, bump = windy_observable(), bump_observable(2.0, 0.5)
        mu = sieve_mobius(10 ** 6)
        for xi, n in itertools.product((ModularPoint.identity(), self.XI),
                                       (3 * 10 ** 5, 10 ** 6)):
            for run in (lambda: birkhoff_average(windy, xi, n),
                        lambda: mobius_disjointness_sum(xi, bump, n, mu)):
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    run()
                    peak = tracemalloc.get_traced_memory()[1] - start
                finally:
                    tracemalloc.stop()
                assert peak < bound, (n, peak)


class TestOrbitSequence:
    def test_finished_array_is_not_copied(self):
        """The sequence wraps the array the orbit was written into, so the
        traced peak stays below two arrays' bytes (a copy makes it three)."""
        n = 3 * 10 ** 5
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            F = orbit_sequence(ModularPoint.identity(), bump_observable(2, 0.5), n)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * F.values.nbytes, (peak, F.values.nbytes)

    def test_bridges_to_bounded_sequence(self):
        f = bump_observable(2, 0.5)
        xi = ModularPoint.lower("inv_e")
        F = orbit_sequence(xi, f, 500)
        assert F.horizon == 500
        c = horocycle_point(xi, 123, need_theta=False)
        assert F.eval(123) == pytest.approx(complex(float(f.eval(c.x, c.y))),
                                            rel=1e-12)
