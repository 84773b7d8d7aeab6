"""Command-line front end: experiment orchestration and report emission.

Subcommands: sieve, decompose, criterion, orbit, correlate, disjointness,
classify. Reports are JSON with exact counts as integers and reals as
decimal strings; time series are CSV with locale-independent formatting.
Exit codes: 0 success, 2 validation, 3 capacity, 4 precision, 5 I/O,
1 unexpected.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import sys
import time
from fractions import Fraction
from typing import Iterable, Sequence

from . import __version__
from .arith import (SEGMENT, MultiplicativeTable, sieve_liouville, sieve_mobius,
                    sieve_primes)
from .criterion import BoundedSequence, _ledger, _pair_plan
from .correlator import PointDescriptor, classify_correlator
from .decomp import (DecompositionParams, build_decomposition, coverage_report,
                     default_schedule, window_primes)
from .dynamics import (ModularPoint, OBSERVABLE_FACTORIES, Observable,
                       OrbitEvaluator, QuadratureSpec, genericity,
                       mobius_disjointness_sum, orbit_sequence, pair_correlation,
                       split_observable)
from .errors import (CapacityError, DescriptorError, HoromuError, PrecisionError,
                     ReportIOError, ValidationError)
from .exactreal import ExactSum, SymbolicReal, read_numeral, symbol_spec

SCHEMA = "horomu/run-report/v1"

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_PRECISION = 4
EXIT_IO = 5
# every other HoromuError is a validation error
_EXIT_CODES = {ReportIOError: EXIT_IO, CapacityError: EXIT_CAPACITY,
               PrecisionError: EXIT_PRECISION}


# ---------------------------------------------------------------------------
# config files: plain KEY=VALUE lines, CLI flags override
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# mini-language parsers
# ---------------------------------------------------------------------------

def parse_point(spec: str) -> ModularPoint:
    """point:identity | point:lower:t=<sym> | point:upper:t=<sym> |
    point:matrix:a;b;c;d (entries in the symbolic mini-grammar)."""
    parts = spec.split(":")
    if parts and parts[0] == "point":
        parts = parts[1:]
    if not parts:
        raise DescriptorError(f"empty point spec {spec!r}")
    kind = parts[0]
    if kind == "identity":
        if len(parts) > 1:
            raise DescriptorError(f"identity point takes no parameters, got {spec!r}")
        return ModularPoint.identity()
    if kind in ("lower", "upper"):
        if len(parts) < 2 or not parts[1].startswith("t="):
            raise DescriptorError(f"{kind} point needs t=<value>, got {spec!r}")
        t = ":".join(parts[1:])[2:]
        maker = ModularPoint.lower if kind == "lower" else ModularPoint.upper
        return maker(t)
    if kind == "matrix":
        if len(parts) < 2:
            raise DescriptorError(f"matrix point needs entries, got {spec!r}")
        entries = ":".join(parts[1:]).split(";")
        if len(entries) != 4:
            raise DescriptorError(f"matrix point needs 4 ;-separated entries: {spec!r}")
        return ModularPoint(*entries)
    raise DescriptorError(f"unknown point kind {kind!r}")


def parse_observable(spec: str) -> Observable:
    """obs:bump:y0=2,width=0.5 | obs:step:... | obs:const:c=1 | obs:windy:..."""
    parts = spec.split(":")
    if parts and parts[0] == "obs":
        parts = parts[1:]
    if not parts:
        raise DescriptorError(f"empty observable spec {spec!r}")
    kind = parts[0]
    if len(parts) > 2:
        raise DescriptorError(
            f"observable parameters are one ,-separated list, got {spec!r}")
    factory = OBSERVABLE_FACTORIES.get(kind)
    if factory is None:
        raise DescriptorError(
            f"unknown observable {kind!r}; choices: {sorted(OBSERVABLE_FACTORIES)}")
    allowed = inspect.signature(factory).parameters
    kwargs = {}
    if len(parts) > 1 and parts[1]:
        for item in parts[1].split(","):
            if "=" not in item:
                raise DescriptorError(f"observable parameter {item!r} needs key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in allowed:
                raise DescriptorError(
                    f"observable {kind!r} has no parameter {key!r}; "
                    f"choices: {sorted(allowed)}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise DescriptorError(
                    f"observable parameter {key}={value!r} is not a number") from None
    return factory(**kwargs)


def parse_sequence(spec: str, horizon: int, precision_bits=None) -> BoundedSequence:
    """const:<c> | exp:theta=<entry> | horocycle:<point>:<obs> | table:<csv>"""
    kind, _, rest = spec.partition(":")
    if kind == "const":
        try:
            c = complex(rest or "1")
        except ValueError:
            raise DescriptorError(f"const sequence needs a number, got {rest!r}") from None
        return BoundedSequence.constant(c, horizon)
    if kind == "exp":
        if not rest.startswith("theta="):
            raise DescriptorError(f"exp sequence needs theta=..., got {spec!r}")
        return BoundedSequence.exponential(rest[len("theta="):], horizon, label=spec)
    if kind == "horocycle":
        point_spec, _, obs_spec = rest.rpartition(":obs:")
        if not point_spec:
            raise DescriptorError(
                f"horocycle sequence needs <point>:obs:<observable>, got {spec!r}")
        xi = parse_point(point_spec)
        f = parse_observable("obs:" + obs_spec)
        return orbit_sequence(xi, f, horizon, precision_bits)
    if kind == "table":
        table = MultiplicativeTable.from_csv(rest)
        if table.n_max < horizon:
            raise ValidationError(
                f"table {rest} covers [1,{table.n_max}], need {horizon}")
        return BoundedSequence(table.values[: horizon + 1], table.label)
    raise DescriptorError(f"unknown sequence kind {kind!r}")


def parse_nu(spec: str, n_max: int) -> MultiplicativeTable:
    if spec == "mobius":
        return sieve_mobius(n_max)
    if spec == "liouville":
        return sieve_liouville(n_max)
    if spec.startswith("table:"):
        table = MultiplicativeTable.from_csv(spec[len("table:"):])
        if table.n_max < n_max:
            raise ValidationError(f"nu table covers [1,{table.n_max}], need {n_max}")
        return table
    raise DescriptorError(f"unknown nu spec {spec!r} (mobius|liouville|table:<csv>)")


def _ints(text: str, what: str, count=None, sep: str = ",") -> list[int]:
    """Integers separated by ``sep``, ``count`` of them when given."""
    try:
        values = [int(v) for v in text.split(sep)]
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    raise DescriptorError(f"malformed {what} {text!r}")


def parse_descriptor(spec: str) -> PointDescriptor:
    """inf | surd:a,b,c | a rational or a constant name in the entry grammar
    of ``SymbolicReal.parse``: a constant with a square relation
    sigma^2 = A + B*sigma is the surd root of z^2 - B z - A."""
    if spec in ("inf", "infinity", "oo"):
        return PointDescriptor.infinity()
    if spec.startswith("surd:"):
        return PointDescriptor.quadratic_surd(*_ints(spec[len("surd:"):], "surd:a,b,c", 3))
    try:
        z = SymbolicReal.parse(spec)
    except DescriptorError:
        z = None
    if z is None or not (z.is_rational or (z.rational == 0 and z.coeff == 1)):
        raise DescriptorError(
            f"cannot parse boundary point {spec!r} (use p/q, inf, surd:a,b,c or a "
            "constant: sqrtD, sqrt:D, golden, e, pi, inv_e, inv_pi, exp1)")
    if z.is_rational:
        return PointDescriptor.from_rational(z.rational)
    square = symbol_spec(z.symbol).square
    if square is None:
        return PointDescriptor.irrational(z.symbol)
    a, b = square
    return PointDescriptor.quadratic_surd(1, -b, -a)


def parse_excluded(spec: str) -> list[tuple[int, int]]:
    """'p1:p2,p3:p4,...' -> [(p1, p2), (p3, p4), ...]."""
    if not spec:
        return []
    return [tuple(_ints(item, "excluded pair p1:p2", 2, ":")) for item in spec.split(",")]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_report(report: dict, path, fmt: str = "json") -> None:
    """Write the report as JSON or key,value CSV to ``path``, or to stdout
    for None or "-"."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
              else open(path, "w", newline="")) as fh:
            if fmt == "csv":
                w = csv.writer(fh)
                w.writerow(["key", "value"])
                w.writerows(sorted(_flatten(report).items()))
            else:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {path}: {exc}")


def _flatten(obj, prefix="") -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def emit_series(rows: Iterable[Sequence], path, columns: list[str]) -> None:
    """CSV with a fixed header, then each row's values in column order;
    floats as repr, so the decimal separator is a period."""
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(columns)
            for row in rows:
                w.writerow([_csv_cell(v) for v in row])
    except OSError as exc:
        raise ReportIOError(f"cannot write series to {path}: {exc}")


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _alpha_fraction(text: str) -> Fraction:
    try:
        return read_numeral(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse alpha {text!r} as an exact ratio")


def _require(args, *names):
    """Flags that may also arrive via --config are validated after the merge."""
    for name in names:
        if getattr(args, name, None) is None:
            raise ValidationError(f"missing required option --{name}")


def _run_sieve(args, timings) -> dict:
    _require(args, "n")
    t0 = time.perf_counter()
    if args.kind == "primes":
        table = sieve_primes(args.n)
        payload = {"kind": "primes", "n": args.n, "count": len(table),
                   "largest": int(table.primes[-1])}
        values = table.primes
    else:
        table = {"mobius": sieve_mobius, "liouville": sieve_liouville}[args.kind](args.n)
        values = table.values[1:]
        payload = {"kind": args.kind, "n": args.n, "partial_sum": int(values.sum())}
    if args.series:  # rows (n, value[n - 1]), one SEGMENT of the table at a time
        emit_series((row for lo in range(0, values.size, SEGMENT)
                     for row in enumerate(values[lo:lo + SEGMENT].tolist(), lo + 1)),
                    args.series, ["n", "value"])
    timings["sieve"] = time.perf_counter() - t0
    return payload


def _run_decompose(args, timings) -> dict:
    _require(args, "n", "alpha")
    t0 = time.perf_counter()
    alpha = _alpha_fraction(args.alpha)
    if args.j0 is None or args.j1 is None:
        j0, j1 = default_schedule(alpha)
    else:
        j0, j1 = args.j0, args.j1
    params = DecompositionParams(args.n, alpha, j0, j1)
    primes = window_primes(params)
    timings["sieve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    dec = build_decomposition(params, primes)
    rep = coverage_report(dec, primes)
    timings["decompose"] = time.perf_counter() - t0
    return rep.as_dict()


def _run_criterion(args, timings) -> dict:
    _require(args, "n", "alpha", "seq", "cutoff")
    t0 = time.perf_counter()
    alpha = _alpha_fraction(args.alpha)
    if args.j0 is None or args.j1 is None:
        raise ValidationError("criterion at desk scale requires explicit --j0/--j1")
    params = DecompositionParams(args.n, alpha, args.j0, args.j1)
    excluded = parse_excluded(args.exclude)
    _pair_plan(params.horizon, args.cutoff, args.m, excluded, args.n)  # before nu and F
    nu = parse_nu(args.nu, args.n)
    F = parse_sequence(args.seq, params.horizon, args.precision_bits)
    timings["inputs"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep = _ledger(nu, F, params, excluded, cutoff=args.cutoff, M=args.m)
    timings["ledger"] = time.perf_counter() - t0
    return rep.as_dict()


def _run_orbit(args, timings) -> dict:
    _require(args, "n", "point")
    if args.n < 1:
        raise ValidationError(f"orbit needs --n >= 1, got {args.n}")
    t0 = time.perf_counter()
    xi = parse_point(args.point)
    f = parse_observable(args.obs)
    ev = OrbitEvaluator(xi, max(args.n, 2), args.precision_bits)
    names = ["n", "x", "y", "theta", "f"]
    total, final = ExactSum(), {}

    def rows():  # the orbit one chunk at a time; CSV rows only for --series
        for lo, (xs, ys, ts) in ev.chunks(range(1, args.n + 1), need_theta=True):
            fs = f.eval(xs, ys, ts)
            total.add(fs)
            final.update(x=repr(float(xs[-1])), y=repr(float(ys[-1])),
                         theta=repr(float(ts[-1])))
            if args.series:
                yield from zip(range(lo + 1, lo + 1 + xs.size), xs.tolist(),
                               ys.tolist(), ts.tolist(), fs.tolist())

    if args.series:
        emit_series(rows(), args.series, names)
    else:
        for _ in rows():
            pass
    timings["orbit"] = time.perf_counter() - t0
    g = genericity(xi)
    return {"point": repr(xi), "observable": f.label, "n": args.n,
            "genericity": g.label, "mean_f": repr(total.value() / args.n),
            "final": final}


def _run_correlate(args, timings) -> dict:
    _require(args, "n", "point")
    if args.n < 1:
        raise ValidationError(f"correlate needs --n >= 1, got {args.n}")
    t0 = time.perf_counter()
    xi = parse_point(args.point)
    f = parse_observable(args.obs)
    quad = QuadratureSpec()
    if args.mean_zero:
        f, c = split_observable(f, quad)
    est = pair_correlation(f, xi, args.p, args.q, args.n,
                           precision_bits=args.precision_bits, quad=quad)
    timings["correlate"] = time.perf_counter() - t0
    out = est.as_dict()
    out.update({"point": repr(xi), "observable": f.label,
                "genericity": genericity(xi).label, "mean_zero": args.mean_zero})
    return out


def _run_disjointness(args, timings) -> dict:
    _require(args, "n", "point")
    if args.n < 1:
        raise ValidationError(f"disjointness needs --n >= 1, got {args.n}")
    t0 = time.perf_counter()
    xi = parse_point(args.point)
    f = parse_observable(args.obs)
    nu = parse_nu(args.nu, args.n)
    ladder = _ints(args.ladder, "--ladder N1,N2,...") if args.ladder else None
    rep = mobius_disjointness_sum(xi, f, args.n, nu, ladder=ladder,
                                  precision_bits=args.precision_bits)
    timings["disjointness"] = time.perf_counter() - t0
    if args.series:
        emit_series(((r.n, r.average, r.centered_average, r.nu_mean) for r in rep.rows),
                    args.series, ["n", "average", "centered_average", "nu_mean"])
    out = rep.as_dict()
    out["genericity"] = genericity(xi).label
    return out


def _run_classify(args, timings) -> dict:
    _require(args, "z")
    t0 = time.perf_counter()
    desc = parse_descriptor(args.z)
    verdict = classify_correlator(desc)
    timings["classify"] = time.perf_counter() - t0
    out = {"z": str(desc), "descriptor_kind": desc.kind}
    out.update(verdict.as_dict())
    out["group"] = "Q*" if verdict.is_full else "{1}"
    return out


_HANDLERS = {
    "sieve": _run_sieve,
    "decompose": _run_decompose,
    "criterion": _run_criterion,
    "orbit": _run_orbit,
    "correlate": _run_correlate,
    "disjointness": _run_disjointness,
    "classify": _run_classify,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horomu",
        description="Mobius orthogonality and horocycle-flow laboratory")
    parser.add_argument("--version", action="version", version=f"horomu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, series=False, precision=False):
        p.add_argument("--out", default=None, help="JSON report path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", default=None, help="KEY=VALUE config file")
        if series:
            p.add_argument("--series", default=None, help="CSV series path")
        if precision:
            p.add_argument("--precision-bits", dest="precision_bits", type=int,
                           default=None)

    p = sub.add_parser("sieve", help="prime / multiplicative-function tables")
    p.add_argument("--kind", choices=("primes", "mobius", "liouville"),
                   default="mobius")
    p.add_argument("--n", type=int, default=None)
    common(p, series=True)

    p = sub.add_parser("decompose", help="block decomposition coverage report")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--j0", type=int, default=None)
    p.add_argument("--j1", type=int, default=None)
    common(p)

    p = sub.add_parser("criterion", help="bilinear criterion ledger")
    p.add_argument("--nu", default="mobius")
    p.add_argument("--seq", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--j0", type=int, default=None)
    p.add_argument("--j1", type=int, default=None)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--exclude", default="",
                   help="prime pairs p1:p2,p3:p4,... with p1 != p2 <= cutoff")
    p.add_argument("--m", type=int, default=None, help="uniform pair length")
    common(p, precision=True)

    p = sub.add_parser("orbit", help="reduced orbit time series")
    p.add_argument("--point", default=None)
    p.add_argument("--obs", default="obs:bump:y0=2,width=0.5")
    p.add_argument("--n", type=int, default=None)
    common(p, series=True, precision=True)

    p = sub.add_parser("correlate", help="two-speed orbit correlation")
    p.add_argument("--point", default=None)
    p.add_argument("--obs", default="obs:bump:y0=2,width=0.5")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mean-zero", dest="mean_zero", action="store_true")
    common(p, precision=True)

    p = sub.add_parser("disjointness", help="weighted orbit average ladder")
    p.add_argument("--point", default=None)
    p.add_argument("--obs", default="obs:bump:y0=2,width=0.5")
    p.add_argument("--nu", default="mobius")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ladder", default=None, help="comma-separated N values")
    common(p, series=True, precision=True)

    p = sub.add_parser("classify", help="correlator-group classification")
    p.add_argument("--z", default=None)
    common(p)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with a --config file's KEY=VALUE lines as leading flags.

    Each key becomes ``--key-with-dashes=value`` right after the subcommand
    name, so argparse converts and checks it exactly as the flag, and the
    user's own flags, coming later, win. A switch takes only true or false.
    """
    probe = parser.parse_args(argv)
    if not probe.config:
        return probe
    try:
        with open(probe.config) as fh:
            defaults = parse_config(fh.read())
    except OSError as exc:
        raise ReportIOError(f"cannot read config {probe.config}: {exc}")
    known = vars(probe)
    tokens = []
    for key, value in defaults.items():
        if key not in known or key == "command":
            raise ValidationError(f"config key {key!r} unknown for {probe.command}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(known[key], bool):
            tokens.append(f"{flag}={value}")
        elif value not in ("true", "false"):
            raise ValidationError(f"config key {key!r} takes true or false, got {value!r}")
        elif value == "true":
            tokens.append(flag)
    at = argv.index(probe.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:  # argparse usage errors carry code 2
            code = exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
            return EXIT_OK if code == 0 else EXIT_VALIDATION
        timings: dict[str, float] = {}
        started = time.perf_counter()
        payload = _HANDLERS[args.command](args, timings)
        timings["total"] = time.perf_counter() - started
        echo = {k: v for k, v in sorted(vars(args).items())
                if k not in ("command",) and v is not None}
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "config": {k: (v if isinstance(v, (int, bool)) else str(v))
                       for k, v in echo.items()},
            "result": payload,
            "timings_sec": {k: round(v, 6) for k, v in timings.items()},
        }
        emit_report(report, args.out, args.format)
        return EXIT_OK
    except (HoromuError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = CapacityError(f"out of memory: {str(exc) or 'MemoryError'}")
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES.items()
                     if isinstance(exc, kind)), EXIT_VALIDATION)
    except (ValueError, OSError) as exc:
        print(f"error[unexpected]: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
