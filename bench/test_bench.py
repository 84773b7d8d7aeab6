"""Smoke test of the benchmark at sizes that take seconds.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402  (needs the path above)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_declared_metrics(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_descriptors_depend_only_on_the_seed():
    for name, cls in workloads.WORKLOADS.items():
        assert cls(7).descriptors() == cls(7).descriptors()
        assert cls(7).parse().keys() == cls(8).parse().keys()
    seen = {workloads.pick_constant(seed) for seed in range(50)}
    assert seen == set(workloads.CONSTANTS)


def test_traced_calls_are_restored():
    from horomu import cli, criterion, dynamics

    import spans
    before = (cli.sieve_mobius, criterion.tau_estimate, dynamics.haar_mean,
              dynamics.OrbitEvaluator.run, criterion.BoundedSequence.exponential)
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        assert cli.sieve_mobius is not before[0]
        cli.parse_nu("mobius", 100)
    after = (cli.sieve_mobius, criterion.tau_estimate, dynamics.haar_mean,
             dynamics.OrbitEvaluator.run, criterion.BoundedSequence.exponential)
    assert after == before
    names = [s.name for s in recorder.spans]
    assert names == ["arith.sieve_mobius", "arith.sieve_primes"]
    assert recorder.spans[1].parent == 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "orbit", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
