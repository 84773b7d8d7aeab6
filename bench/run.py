"""horomu benchmark: run one workload as a closed loop for a fixed time.

Usage, from the repository root:

    python3 bench/run.py --workload bilinear --seed 1 --seconds 20 --trace 0

One client runs the workload's operation again and again, each starting
when the previous one returned, until ``--seconds`` have passed (at least
one operation; two with ``--trace 1``). Every operation's outputs are
checked; a failed check or an exception counts the operation as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, measured with no
tracing. With ``--trace 1`` operations alternate between untraced and
traced, and the metrics are the per-layer ones: medians over the traced
operations, plus the tracing overhead. Run metadata and per-layer self
times go on the line before, and the spans of a traced run are written to
``bench/out/``. ``--size smoke`` runs each workload at a size that takes
seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is timed this many times before the first operation and once after
# each, so its samples see the same changes of machine speed as the operations.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def cap_blas_threads(nproc: int) -> None:
    """BLAS keeps its default of one thread per core, never more than nproc."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def time_setup(args) -> float:
    """Spawn-to-exit time of a fresh interpreter that only does the set-up."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(nproc: int) -> dict:
    import numpy
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "horomu").rglob("*.py")))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads(),
            "git_revision": rev, "src_lines": src_lines}


def declared_metrics() -> dict:
    """name -> unit for the end-to-end (trace 0) and per-layer (trace 1) sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "horomu" / "__init__.py").is_file():
        print(f"bench: no horomu sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    units = declared_metrics()[args.trace]
    setup = [time_setup(args) for _ in range(SETUP_PROBES)]

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    inputs = workload.parse()
    static_fails, deviation = workload.static_check(inputs)

    walls = {False: [], True: []}  # by traced
    layer_runs, span_runs, layer_self = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        # the first operation, which also pays first-call costs, is untraced
        traced = bool(args.trace) and attempted % 2 == 1
        recorder = spans.Recorder()
        try:
            with spans.instrument(recorder) if traced else nullcontext():
                t0 = time.perf_counter()
                out = workload.run(inputs)
                wall = time.perf_counter() - t0
            walls[traced].append(wall)
            fails = static_fails + workload.check(inputs, out)
        except Exception:  # an operation that raises is a failed operation
            fails = [traceback.format_exc()]
        out = None  # release the outputs before the next operation
        attempted += 1
        setup.append(time_setup(args))
        if fails:
            failed += 1
            print(f"bench: operation {attempted} failed: {fails}", file=sys.stderr)
        if traced:
            layer_runs.append(spans.layer_metrics(recorder))
            layer_self.append(spans.layer_self_times(recorder))
            span_runs.append(recorder.as_records())
        done = time.perf_counter() >= deadline
        if done and walls[False] and (walls[True] or not args.trace):
            break
        if done and attempted >= 4:  # operations keep failing; give up
            break

    if not walls[False] or (args.trace and not walls[True]):
        print("bench: no operation completed", file=sys.stderr)
        return 1
    wall_s = statistics.median(walls[False])
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "descriptors": workload.descriptors(),
            "work": workload.work, "work_unit": workload.work_unit,
            "op_walls_s": walls[False], "setup_probes_s": setup,
            **run_metadata(nproc)}
    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        traced_wall = statistics.median(walls[True])
        metrics["dynamics.max_dev_vs_exact"] = deviation
        metrics["trace.overhead_s"] = traced_wall - wall_s
        self_s = {layer: statistics.median(run[layer] for run in layer_self)
                  for layer in layer_self[0]}
        info.update({"traced_op_walls_s": walls[True], "layer_self_s": self_s,
                     "layer_share": {k: v / traced_wall for k, v in self_s.items()}})
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"info": info, "operations": span_runs}, indent=1))
        info["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": wall_s,
            "throughput": workload.work / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json "
                           f"declares {sorted(units)}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
