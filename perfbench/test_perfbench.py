"""Self-tests of the benchmark, at the tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import reference
from run import WORKLOADS
from tracer import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _copy_bench(dest: Path) -> None:
    """BENCHMARK.json and the benchmark's files, without the program."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))


def test_benchmark_json_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload):
    proc, result = _bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    for name, unit in _units("end_to_end").items():
        assert any(line.startswith(name) and line.split()[2] == unit
                   for line in proc.stdout.splitlines()), name
    assert any(line.startswith("fail_ratio") and line.split()[1] == "0"
               for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [_bench("--workload", workload, "--seed", "5", "--trace", "1")
            for _ in range(2)]
    units = _units("per_layer")
    for proc, result in runs:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"]
        metrics = result["metrics"]
        assert all(units[k] == v["unit"] for k, v in metrics.items())
        # A metric whose function or cache qcap no longer has is absent.
        absent = {line.split()[0] for line in proc.stdout.splitlines()
                  if line.split()[1:] == ["absent"]}
        assert absent | set(metrics) == set(units) and not absent & set(metrics)
    first, second = (r["metrics"] for _, r in runs)
    for name in COUNT_METRICS:
        assert first.get(name) == second.get(name), name


def test_removed_function_and_caches_are_absent():
    # Take poch_ratio and every qcombinat cache out of an imported qcap, then
    # install the tracer: their metrics must be left out, the rest kept.
    script = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
from qcap import qcombinat
from tracer import Tracer
del qcombinat.poch_ratio
for mod in [m for n, m in sys.modules.items() if n.startswith("qcap")]:
    for attr, value in list(vars(mod).items()):
        if hasattr(value, "cache_info"):
            setattr(mod, attr, value.__wrapped__)
tracer = Tracer()
tracer.install()
print(json.dumps(sorted(tracer.metrics(0))))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    present = set(json.loads(proc.stdout))
    removed = {"qcombinat.poch_ratio.calls", "qcombinat.poch_ratio.self_s",
               "qcombinat.cache_hit_ratio", "qcombinat.cache_entries"}
    assert present == set(_units("per_layer")) - removed - {"trace.overhead_s"}


def test_rescaler_leaves_out_its_reps_and_rescales_by_them():
    clock = reference.Rescaler()
    start = perf_counter()
    clock.start()
    work_start = perf_counter()
    while perf_counter() - work_start < 3 * reference.TICK_S:
        sum(i * i for i in range(1000))
    clock.stop()
    total = perf_counter() - start
    # Three edge reps on each side and one rep per tick.
    ticks = len(clock.refs) - 2
    assert ticks >= 2
    reps_s = sum(clock.refs[1:-1]) + reference.EDGE_REPS * (
        clock.refs[0] + clock.refs[-1])
    assert clock.wall_s < total - 0.5 * reps_s
    assert 0 < clock.cpu_s <= clock.wall_s * 1.05 + 0.01
    # Every stretch is rescaled by the mean of two reps, so the whole is
    # rescaled by a factor between the extremes of NOMINAL_S / rep.
    factor = clock.scaled_wall_s / clock.wall_s
    assert (reference.NOMINAL_S / max(clock.refs) <= factor
            <= reference.NOMINAL_S / min(clock.refs))


def test_altered_golden_output_counts_as_failure(tmp_path):
    _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "golden" / "oracle-tiny.txt"
    lines = path.read_text().splitlines()
    assert ",True" in lines[0]
    lines[0] = lines[0].replace(",True", ",False")
    path.write_text("\n".join(lines) + "\n")
    proc, result = _bench("--workload", "oracle", "--seed", "1", "--trace", "0",
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    fail_line = next(line for line in proc.stdout.splitlines()
                     if line.startswith("fail_ratio"))
    assert float(fail_line.split()[1]) > 0
    assert result["metrics"]["verdict_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc, _ = _bench("--workload", "gate", "--seed", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
